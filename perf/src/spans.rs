//! The harness's own span recorder: one span around each call into the
//! program, kept in memory and written out when the run ends. The program
//! itself is not instrumented (that is a later issue); these spans are the
//! layer boundaries visible from outside.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Spans of one job share `job`; `parent` indexes
/// the span that caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span sink. A recorder that is off hands out no ids and
/// records nothing, so the end-to-end run pays no more than a branch.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, job: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("a span writer panicked");
        spans.push(Span { name, job, parent, start_ns, end_ns: start_ns });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("a span writer panicked")[id].end_ns = end_ns;
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("a span writer panicked")
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Durations in ms of every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// The spans as a JSON array, one object per span with its self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.job, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, job: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", None, 0, 100),
            span("plan.build", Some(0), 10, 30),
            span("context.execute", Some(0), 20, 60), // overlaps plan.build by 10
            span("stage", Some(2), 25, 35),
            span("late", Some(0), 90, 120), // clipped to the parent's end
        ];
        // job: 100 - (10..60 = 50) - (90..100 = 10)
        assert_eq!(self_ns(&spans), vec![40, 20, 30, 10, 30]);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let rec = Recorder::new(false);
        let id = rec.begin("job", 1, None);
        rec.end(id);
        assert_eq!(id, None);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let rec = Recorder::new(true);
        let job = rec.begin("job", 7, None);
        let inner = rec.begin("plan.build", 7, job);
        rec.end(inner);
        rec.end(job);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ms(&spans, "plan.build").len(), 1);
        let json = to_json(&spans);
        assert!(json.contains("\"name\": \"plan.build\", \"job\": 7, \"parent\": 0"));
        assert!(json.contains("\"self_ns\""));
    }
}
