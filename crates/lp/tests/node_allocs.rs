//! A machine-independent gate on what a branch & bound node allocates.
//!
//! Its own test binary, because it installs a counting `#[global_allocator]`
//! and must be the only thread allocating while it counts. Three solves share
//! one [`SolveContext`], as a fleet's admissions do: a churn-class model
//! (20 intervals, 80 variables, 83 standard-form rows) that no integer point
//! satisfies, searched to its 2 000-node cap the way a refused admission is
//! (it never repeats a node), a Figure-16-class model (48 intervals, 192
//! variables) solved to a 2 % gap in 481 nodes, and a four-variable model
//! whose every node repeats the one before it, spun to a 200-node cap with
//! 195 of them replayed. One gate is heap allocations per explored node over
//! all three — skeleton, workspace and heap growth included, so it also
//! bounds the per-solve set-up. The other is the Figure-16-class solve's
//! peak live bytes: the high-water mark of bytes allocated and not yet
//! freed while it runs, over those live when it starts.
//!
//! Readings (counts, so they repeat exactly, debug or release):
//!
//! | commit                                         | allocations | nodes | per node | Fig-16 peak bytes |
//! |------------------------------------------------|------------:|------:|---------:|------------------:|
//! | parent `228560d`, before the node loop changed |      60 506 | 2 481 |    24.39 |                 — |
//! | `d683251`, the node loop's allocations removed |       6 666 | 2 481 |     2.69 |                 — |
//! | the spin added, before nodes were replayed     |       6 703 | 2 681 |     2.50 |                 — |
//! | replayed nodes                                 |       6 703 | 2 681 |     2.50 |                 — |
//! | `120300f`, an open node owns two bound vectors |       6 716 | 2 681 |     2.51 |         1 655 395 |
//! | an open node is one branching record           |       1 786 | 2 681 |     0.67 |           206 691 |
//!
//! What is left is the growth of the search heap, of the arena of branching
//! records and of the focused chain — amortized doublings, none per node.
//! Each gate is the newest reading plus a margin (one allocation per node;
//! half the bytes): the first fails the day a `clone()` or a `collect()`
//! goes back into the node loop, the second the day an open node owns a
//! vector again. A replayed node's only child is the node itself, which
//! shares its record, so a replay allocates nothing: 200 more nodes of the
//! spin cost 0 allocations, and the test asserts exactly that (in debug
//! builds too, whose re-solve of every replayed node writes into a reused
//! buffer and whose check of every walk allocates nothing). Since branch &
//! bound jumps such a spin to its cap, the 200 more nodes also cost no
//! iteration of the node loop: they are counted, not popped.

use conductor_lp::{
    ConstraintOp, LpError, Problem, Sense, SolveContext, SolveOptions, SolveStatus,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics that publish
// no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: same layout, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: same block, layout and size, forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live bytes of the Figure-16-class solve when its gate was set, and
/// the gate: that reading plus half.
const FIG16_PEAK_READING: usize = 206_691;
const FIG16_PEAK_GATE: usize = FIG16_PEAK_READING * 3 / 2;

/// A deployment-plan look-alike over `intervals` hours: integer node counts
/// `n_t`, continuous processing `w_t <= 0.44 n_t`, rate-capped uploads `u_t`
/// into storage `s_t = s_{t-1} + u_t - w_t`, all of `input_gb` uploaded and
/// processed, hourly prices that make late nodes cheaper. With `odd_nodes`
/// the model also demands `sum 2 n_t` be odd — feasible for the relaxation,
/// for no integer point — so the search runs to whatever cap it is given.
fn plan_model(intervals: usize, input_gb: f64, odd_nodes: bool) -> Problem {
    let mut p = Problem::new("plan", Sense::Minimize);
    let n: Vec<_> = (0..intervals)
        .map(|t| p.add_int_var(format!("n{t}"), 0.0, 15.0))
        .collect();
    let w: Vec<_> = (0..intervals)
        .map(|t| p.add_var(format!("w{t}"), 0.0, f64::INFINITY))
        .collect();
    let u: Vec<_> = (0..intervals)
        .map(|t| p.add_var(format!("u{t}"), 0.0, 1.7))
        .collect();
    let s: Vec<_> = (0..intervals)
        .map(|t| p.add_var(format!("s{t}"), 0.0, f64::INFINITY))
        .collect();
    p.set_objective(
        (0..intervals)
            .map(|t| (n[t], 0.34 - 0.002 * (t % 7) as f64))
            .chain((0..intervals).map(|t| (s[t], 0.01))),
    );
    for t in 0..intervals {
        p.add_constraint(
            format!("rate{t}"),
            [(w[t], 1.0), (n[t], -0.44)],
            ConstraintOp::Le,
            0.0,
        );
        let mut balance = vec![(s[t], 1.0), (u[t], -1.0), (w[t], 1.0)];
        if t > 0 {
            balance.push((s[t - 1], -1.0));
        }
        p.add_constraint(format!("store{t}"), balance, ConstraintOp::Eq, 0.0);
    }
    p.add_constraint(
        "upload",
        u.iter().map(|&v| (v, 1.0)),
        ConstraintOp::Eq,
        input_gb,
    );
    p.add_constraint(
        "process",
        w.iter().map(|&v| (v, 1.0)),
        ConstraintOp::Ge,
        input_gb,
    );
    if odd_nodes {
        let at_least = (input_gb / 0.44).ceil();
        p.add_constraint(
            "odd",
            n.iter().map(|&v| (v, 2.0)),
            ConstraintOp::Eq,
            2.0 * at_least + 1.0,
        );
    }
    p
}

/// min n + 1.3m + 0.001s over w ≤ 0.44n + 0.5m, w ≥ 0.44·3.000004, s ≥ 100,
/// n, m integers in 0..=15: the root LP puts n at 3.000004, fractional to
/// the integrality test and feasible to the LP's tolerance (the row
/// `s ≥ 100` widens it), so the down child of every node is the node itself
/// and the search spins to whatever cap it is given, replaying the node.
fn spinning_model() -> Problem {
    let mut p = Problem::new("spin", Sense::Minimize);
    let n = p.add_int_var("n", 0.0, 15.0);
    let m = p.add_int_var("m", 0.0, 15.0);
    let w = p.add_var("w", 0.0, f64::INFINITY);
    let s = p.add_var("s", 0.0, f64::INFINITY);
    p.set_objective([(n, 1.0), (m, 1.3), (s, 0.001)]);
    p.add_constraint(
        "rate",
        [(w, 1.0), (n, -0.44), (m, -0.5)],
        ConstraintOp::Le,
        0.0,
    );
    p.add_constraint("work", [(w, 1.0)], ConstraintOp::Ge, 0.44 * 3.000004);
    p.add_constraint("floor", [(s, 1.0)], ConstraintOp::Ge, 100.0);
    p
}

/// Allocations and replayed nodes of one spin to `max_nodes` under a fresh
/// context.
fn spin(max_nodes: usize) -> (usize, usize) {
    let options = SolveOptions {
        max_nodes,
        ..SolveOptions::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let solved = spinning_model()
        .solve_with(&options)
        .expect("the spin finds 4.1");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(solved.stats().nodes_explored, max_nodes);
    (allocations, solved.stats().replayed_nodes)
}

#[test]
fn a_node_allocates_next_to_nothing() {
    let capped = plan_model(20, 30.0, true);
    let fig16 = plan_model(48, 20.0, false);
    let spinning = spinning_model();
    let cap = SolveOptions {
        max_nodes: 2_000,
        ..SolveOptions::default()
    };
    let to_gap = SolveOptions {
        relative_gap: 0.02,
        ..SolveOptions::default()
    };
    let spin_cap = SolveOptions {
        max_nodes: 200,
        ..SolveOptions::default()
    };
    let mut ctx = SolveContext::new();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let refused = capped.solve_with_context(&cap, &mut ctx);
    let capped_stats = ctx.last_solve_stats().expect("searched");
    let floor = LIVE.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let planned = fig16.solve_with_context(&to_gap, &mut ctx);
    let fig16_peak = PEAK.load(Ordering::Relaxed) - floor;
    let spun = spinning.solve_with_context(&spin_cap, &mut ctx);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert!(matches!(refused, Err(LpError::NoIncumbent)), "{refused:?}");
    assert_eq!(
        capped_stats.nodes_explored, 2_000,
        "the capped model must reach its cap"
    );
    let planned = planned.expect("the Figure-16-class model plans");
    assert_eq!(planned.status(), SolveStatus::Optimal);
    let spun = spun.expect("the spin finds 4.1");
    let replayed = [capped_stats, *planned.stats(), *spun.stats()].map(|s| s.replayed_nodes);
    assert_eq!(replayed, [0, 0, 195], "replayed nodes per solve");
    let nodes = capped_stats.nodes_explored + planned.stats().nodes_explored + 200;
    let per_node = allocations as f64 / nodes as f64;
    println!("{allocations} allocations over {nodes} nodes: {per_node:.2} per node");
    assert!(
        per_node <= 1.67,
        "{allocations} allocations over {nodes} explored nodes is {per_node:.2} per node; \
         the node loop read 0.67 when this gate was set"
    );
    println!("the Figure-16-class solve peaks at {fig16_peak} live bytes");
    assert!(
        fig16_peak <= FIG16_PEAK_GATE,
        "the Figure-16-class solve peaked at {fig16_peak} live bytes; it read \
         {FIG16_PEAK_READING} when this gate was set"
    );

    // A replayed node's self-child shares its record, and nothing else in
    // the node loop allocates: 200 more nodes of the spin, all replayed,
    // cost no allocation at all (debug builds' re-solve included).
    let (short, short_replays) = spin(200);
    let (long, long_replays) = spin(400);
    assert_eq!(long_replays - short_replays, 200);
    assert_eq!(
        long,
        short,
        "200 more replayed nodes allocated {}",
        long - short
    );
}
