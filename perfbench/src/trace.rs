//! In-memory spans recorded around the calls into each layer.
//!
//! A child process keeps its spans in a [`Tracer`] and prints them when the
//! sample ends; the parent checks them and writes every sample's spans to
//! one JSON-lines file. Collections get their spans from [`GcSpans`], an
//! observer on the machine's public telemetry hook, so the only timing
//! inside `run` is the collector's.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use scavenger::telemetry::{GcEvent, Observer, Recorder};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same sample.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one and returns its index.
    pub fn open(&mut self, name: &str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `i` and any span still open inside it.
    pub fn close(&mut self, i: usize) {
        let now = self.now();
        while let Some(j) = self.open.pop() {
            self.spans[j].end_ns = now;
            if j == i {
                break;
            }
        }
    }

    /// Closes the innermost open span if it is called `name`.
    fn close_named(&mut self, name: &str) {
        if let Some(&i) = self.open.last().filter(|&&i| self.spans[i].name == name) {
            self.close(i);
        }
    }
}

/// Runs `f` inside a span called `name`.
pub fn span<T>(tracer: &SharedTracer, name: &str, f: impl FnOnce() -> T) -> T {
    let i = tracer.borrow_mut().open(name);
    let out = f();
    tracer.borrow_mut().close(i);
    out
}

/// Opens a `gc` span on every `GcBegin` and closes it on the matching
/// `GcEnd`, and forwards every event to a [`Recorder`].
#[derive(Debug)]
pub struct GcSpans {
    pub tracer: SharedTracer,
    pub recorder: Recorder,
}

impl Observer for GcSpans {
    fn on_event(&mut self, event: &GcEvent) {
        match event {
            GcEvent::GcBegin { .. } => {
                self.tracer.borrow_mut().open("gc");
            }
            GcEvent::GcEnd { .. } => self.tracer.borrow_mut().close_named("gc"),
            _ => {}
        }
        self.recorder.on_event(event);
    }
}

/// Stages of the front end, as they appear under a `setup` span.
pub const STAGES: [&str; 6] = ["parse", "src_tyck", "cps", "stage_check", "cc", "trans"];

/// Time between stages that one preemption on a shared host can add: a
/// `dag-forwarding` sample's whole setup takes about 2 ms, and one of them
/// once had 0.85 ms of it outside every stage.
const PREEMPTION_NS: u64 = 2_000_000;

/// Checks one sample's span tree: every span lies inside its parent, and
/// the stages under the `setup` spans cover their total to within 10% plus
/// [`PREEMPTION_NS`]. The coverage is summed over the sample because a
/// kernel's setup takes well under a millisecond, so one interrupt between
/// two of its stages can leave more than a tenth of it uncovered.
pub fn check(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has a bad parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) lies outside its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    let duration = |s: &Span| s.end_ns - s.start_ns;
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(duration)
        .sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| {
            STAGES.contains(&s.name.as_str()) && s.parent.is_some_and(|p| spans[p].name == "setup")
        })
        .map(duration)
        .sum();
    if (total as f64 - covered as f64).abs() > 0.1 * total as f64 + PREEMPTION_NS as f64 {
        return Err(format!(
            "stages under the setup spans cover {covered} ns of {total} ns"
        ));
    }
    Ok(())
}

/// Total duration of the spans called `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_spans_pass_and_escaping_ones_fail() {
        let good = [
            s("sample", 0, 100, None),
            s("setup", 0, 50, Some(0)),
            s("parse", 0, 48, Some(1)),
            s("run", 50, 100, Some(0)),
        ];
        assert_eq!(check(&good), Ok(()));
        let mut escaping = good.clone();
        escaping[3].end_ns = 101;
        assert!(check(&escaping).is_err());
        let ms = 1_000_000;
        let uncovered = [
            s("sample", 0, 100 * ms, None),
            s("setup", 0, 50 * ms, Some(0)),
            s("parse", 0, 10 * ms, Some(1)),
        ];
        assert!(check(&uncovered).is_err());
        // One preemption's gap in a 2 ms setup passes.
        let short = [
            s("sample", 0, 3 * ms, None),
            s("setup", 0, 2 * ms, Some(0)),
            s("parse", 0, ms, Some(1)),
        ];
        assert_eq!(check(&short), Ok(()));
        // A short setup with a gap passes when the sample's setups as a
        // whole are covered.
        let mut two = good.to_vec();
        two.extend([s("setup", 50, 52, Some(0)), s("parse", 50, 51, Some(4))]);
        two[3].start_ns = 52;
        assert_eq!(check(&two), Ok(()));
    }

    #[test]
    fn tracer_nests_and_gc_spans_follow_events() {
        let tracer = Tracer::shared();
        span(&tracer, "run", || {
            let mut obs = GcSpans {
                tracer: tracer.clone(),
                recorder: Recorder::new(),
            };
            obs.on_event(&GcEvent::GcBegin {
                step: 1,
                collection: 0,
                region: scavenger::gc_lang::syntax::RegionName(1),
                region_words: 0,
                heap_words: 0,
                occupancy: Vec::new(),
            });
            obs.on_event(&GcEvent::Halt { step: 2, value: 0 });
        });
        let spans = &tracer.borrow().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "gc");
        assert_eq!(spans[1].parent, Some(0));
    }
}
