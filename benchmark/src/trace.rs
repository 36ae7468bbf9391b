//! Harness-side spans around calls into the libraries.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], traced
//! or not, because the end-to-end numbers come from the same clock reads: the
//! calls made directly under the workload's root span are the pass's
//! *steps*, and their times are kept in call order ([`Tracer::steps`])
//! so that repeated passes can be compared step by step.
//! With tracing on, each call also leaves a [`Span`] in memory; the spans are
//! written out when the workload ends. Nothing inside `crates/` is touched.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// "No parent" / "no request" marker in [`Span`] and in the trace file (-1).
pub const NONE: u32 = u32::MAX;

/// One timed call: `{name, start_ns, end_ns, parent, request}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `fleet.admission_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Index into the request table (tenant, model or deployment name), or
    /// `u32::MAX`.
    pub request: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A call in flight, returned by [`Tracer::begin`].
pub struct Open {
    start: Instant,
    index: u32,
    /// Calls open around this one.
    depth: u32,
}

/// A finished call: its wall time, when tracing its span index, and its
/// position in [`Tracer::steps`] when it is a step of the workload.
pub struct Timed {
    pub elapsed: Duration,
    pub span: u32,
    pub step: Option<usize>,
}

impl Timed {
    pub fn seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    pub fn millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub seconds: f64,
    pub calls: usize,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    requests: Vec<String>,
    request_index: BTreeMap<String, u32>,
    /// Calls in flight, traced or not.
    depth: u32,
    /// Whether the workload's root span is open.
    in_workload: bool,
    steps: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: Vec::new(),
            request_index: BTreeMap::new(),
            depth: 0,
            in_workload: false,
            steps: Vec::new(),
        }
    }

    /// Opens the root span of the timed section. Every call made directly
    /// under it is a step.
    pub fn open_workload(&mut self) -> Open {
        debug_assert_eq!(self.depth, 0, "the workload span is a root");
        self.in_workload = true;
        self.begin()
    }

    /// Closes the root span; its duration is the pass's raw wall.
    pub fn close_workload(&mut self, open: Open) -> Timed {
        let timed = self.end(open, "harness.workload", NONE);
        self.in_workload = false;
        timed
    }

    /// Seconds of every step of the workload section, in call order.
    pub fn steps(&self) -> &[f64] {
        &self.steps
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Interns a request label (tenant, model or deployment name). Free when
    /// tracing is off.
    pub fn request(&mut self, label: impl FnOnce() -> String) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let label = label();
        if let Some(&i) = self.request_index.get(&label) {
            return i;
        }
        let i = self.requests.len() as u32;
        self.requests.push(label.clone());
        self.request_index.insert(label, i);
        i
    }

    /// Starts timing a call. The span's parent is the innermost call still
    /// open.
    pub fn begin(&mut self) -> Open {
        let mut index = NONE;
        if self.enabled {
            index = self.spans.len() as u32;
            self.spans.push(Span {
                name: "",
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NONE),
                request: NONE,
            });
            self.stack.push(index);
        }
        let depth = self.depth;
        self.depth += 1;
        let start = Instant::now();
        if self.enabled {
            self.spans[index as usize].start_ns = (start - self.epoch).as_nanos() as u64;
        }
        Open {
            start,
            index,
            depth,
        }
    }

    /// Ends a call: reads the clock and closes the span. The span is named
    /// afterwards with [`label`](Self::label), because a fleet batch can only
    /// be classified by what it emitted, and that lookup must not be timed.
    pub fn stop(&mut self, open: Open) -> Timed {
        let elapsed = open.start.elapsed();
        self.depth -= 1;
        debug_assert_eq!(self.depth, open.depth, "calls must nest");
        if self.enabled {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.index), "spans must nest");
            let span = &mut self.spans[open.index as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        let step = (self.in_workload && open.depth == 1).then(|| {
            self.steps.push(elapsed.as_secs_f64());
            self.steps.len() - 1
        });
        Timed {
            elapsed,
            span: open.index,
            step,
        }
    }

    /// Names a stopped span and ties it to a request.
    pub fn label(&mut self, timed: &Timed, name: &'static str, request: u32) {
        if self.enabled {
            let span = &mut self.spans[timed.span as usize];
            span.name = name;
            span.request = request;
        }
    }

    /// [`stop`](Self::stop) and [`label`](Self::label) in one step.
    pub fn end(&mut self, open: Open, name: &'static str, request: u32) -> Timed {
        let timed = self.stop(open);
        self.label(&timed, name, request);
        timed
    }

    /// Adds child spans for time the library itself published (e.g. a
    /// `PlanningReport::solve_time`): the durations are read, their position
    /// inside the parent is not observed, so the children are laid end to
    /// end from the parent's start and clamped to its end.
    pub fn add_published_children(&mut self, parent: u32, children: &[(&'static str, Duration)]) {
        if !self.enabled || parent == NONE {
            return;
        }
        let p = &self.spans[parent as usize];
        let (mut at, p_end, request) = (p.start_ns, p.end_ns, p.request);
        for &(name, duration) in children {
            let end_ns = (at + duration.as_nanos() as u64).min(p_end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns,
                parent,
                request,
            });
            at = end_ns;
        }
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// The trace file: name and request tables, then one row per span in the
    /// order of `columns`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut name_index: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut rows = String::new();
        let signed = |i: u32| if i == NONE { -1 } else { i64::from(i) };
        for (i, s) in self.spans.iter().enumerate() {
            let name = *name_index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                rows,
                "{sep}[{name},{},{},{},{}]",
                s.start_ns,
                s.end_ns,
                signed(s.parent),
                signed(s.request)
            );
        }
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\
             \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\n\
             \"names\":{},\n\"requests\":{},\n\"spans\":[\n{rows}\n]}}\n",
            serde_json::to_string(&names).expect("span names serialize"),
            serde_json::to_string(&self.requests).expect("request labels serialize"),
        )
    }
}

fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(s.name).or_default();
        entry.seconds += s.duration_ns().saturating_sub(children) as f64 * 1e-9;
        entry.calls += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: NONE,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..1000; two `a` children cover 100..400 and 500..700; the
        // first has a grandchild 150..250.
        let spans = [
            span("root", 0, 1_000, NONE),
            span("a", 100, 400, 0),
            span("b", 150, 250, 1),
            span("a", 500, 700, 0),
        ];
        let t = self_times(&spans);
        assert!((t["root"].seconds - 500e-9).abs() < 1e-15);
        assert!((t["a"].seconds - 400e-9).abs() < 1e-15);
        assert_eq!(t["a"].calls, 2);
        assert!((t["b"].seconds - 100e-9).abs() < 1e-15);
        // Self times partition the root's duration.
        let total: f64 = t.values().map(|s| s.seconds).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_places_published_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin();
        let inner = t.begin();
        let req = t.request(|| "tenant-001".into());
        let inner_idx = t.end(inner, "inner", req).span;
        let outer_idx = t.end(outer, "outer", NONE).span;
        assert_eq!(t.spans()[inner_idx as usize].parent, outer_idx);
        assert_eq!(t.spans()[outer_idx as usize].parent, NONE);
        assert_eq!(t.request(|| "tenant-001".into()), req);

        // A published child never outlives its parent.
        let published = [
            ("model.build", Duration::from_nanos(1)),
            ("lp.solve", Duration::from_secs(3_600)),
        ];
        t.add_published_children(outer_idx, &published);
        let [.., build, solve] = t.spans() else {
            panic!("children missing")
        };
        let parent = &t.spans()[outer_idx as usize];
        assert_eq!((build.parent, solve.parent), (outer_idx, outer_idx));
        assert_eq!(build.start_ns, parent.start_ns);
        assert_eq!(solve.start_ns, build.end_ns);
        assert_eq!(solve.end_ns, parent.end_ns);
        let json = t.to_json("w", 1);
        assert!(json.contains("\"names\":[\"outer\",\"inner\",\"model.build\",\"lp.solve\"]"));
        assert!(json.contains("\"requests\":[\"tenant-001\"]"));
    }

    #[test]
    fn steps_are_the_calls_directly_under_the_workload() {
        for enabled in [false, true] {
            let mut t = Tracer::new(enabled);
            let before = t.begin();
            assert_eq!(t.end(before, "harness.prepare", NONE).step, None);
            let root = t.open_workload();
            let a = t.begin();
            let inner = t.begin();
            assert_eq!(t.end(inner, "inner", NONE).step, None);
            assert_eq!(t.end(a, "a", NONE).step, Some(0));
            let b = t.begin();
            let b = t.end(b, "b", NONE);
            assert_eq!(b.step, Some(1));
            assert_eq!(t.close_workload(root).step, None);
            let extras = t.begin();
            let after = t.begin();
            assert_eq!(t.end(after, "after", NONE).step, None);
            t.end(extras, "harness.extras", NONE);
            assert_eq!(t.steps().len(), 2);
            assert_eq!(t.steps()[1], b.elapsed.as_secs_f64());
        }
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin();
        let timed = t.end(open, "x", NONE);
        assert_eq!(timed.span, NONE);
        assert!(timed.elapsed.as_nanos() > 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.request(|| unreachable!()), NONE);
    }
}
