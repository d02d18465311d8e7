//! From samples to metrics: the end-to-end set (measured with tracing off)
//! and the per-layer set (from the traced run and the probes).

use scavenger::Backend;

use crate::child::{Config, Kind, Sample};

/// One metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

/// Median and quartiles of a metric's samples. With at most about 20
/// samples per configuration, the median is the highest percentile with
/// ten samples beyond it, so no tail percentile is reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, values: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            values,
        }
    }

    /// `None` when there are no samples.
    pub fn summary(&self) -> Option<Summary> {
        let mut v: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Some(Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: v.len(),
        })
    }
}

/// Whether the end-to-end metrics time backend `b`: every backend but the
/// substitution machine. That one is the paper's reference semantics, which
/// the tests and the supervisor replay on as an oracle. It steps about ten
/// times slower than the others, so its samples took about 40% of a program
/// workload's run, and its run medians still spread 5–13% across seeds,
/// because a two-second sample outlasts the host's speed swings.
pub fn timed(b: Backend) -> bool {
    b != Backend::Subst
}

/// Names and units of the end-to-end metrics, in report order. The
/// per-backend throughputs follow `Backend::ALL`.
pub fn e2e_names() -> Vec<(String, &'static str)> {
    let mut names = vec![("setup_s".to_string(), "s"), ("e2e_s".to_string(), "s")];
    names.extend(
        Backend::ALL
            .into_iter()
            .filter(|b| timed(*b))
            .map(|b| (format!("steps_per_s.{b}"), "1/s")),
    );
    names.extend([
        ("audited_steps_per_s".to_string(), "1/s"),
        ("peak_rss_mb".to_string(), "MiB"),
        ("peak_heap_words".to_string(), "words"),
        ("steps".to_string(), "count"),
    ]);
    names
}

/// Names and units of the per-layer metrics, in report order.
pub const LAYER_NAMES: [(&str, &str); 41] = [
    ("parse.ms", "ms"),
    ("src_tyck.ms", "ms"),
    ("cps.ms", "ms"),
    ("cc.ms", "ms"),
    ("stage_check.ms", "ms"),
    ("trans.ms", "ms"),
    ("certify.ms", "ms"),
    ("cert.blocks", "count"),
    ("load.ms", "ms"),
    ("bc_compile.ms", "ms"),
    ("gc.steps", "count"),
    ("gc.step_share", "ratio"),
    ("gc.ms", "ms"),
    ("gc.collections", "count"),
    ("gc.words_copied", "words"),
    ("gc.words_promoted", "words"),
    ("gc.forwarding_installs", "count"),
    ("gc.typecase_dispatches", "count"),
    ("mutator.steps", "count"),
    ("mutator.ms", "ms"),
    ("intern.val_nodes", "count"),
    ("intern.val_hits", "count"),
    ("intern.val_hit_ratio", "ratio"),
    ("intern.term_nodes", "count"),
    ("intern.term_hits", "count"),
    ("intern.lazy_deferred", "count"),
    ("intern.lazy_forced", "count"),
    ("intern.lazy_force_ratio", "ratio"),
    ("pages.allocated", "count"),
    ("pages.freed", "count"),
    ("pages.peak_live", "count"),
    ("mem.allocations", "count"),
    ("mem.words_allocated", "words"),
    ("mem.regions_created", "count"),
    ("mem.words_reclaimed", "words"),
    ("audit.us_per_step", "us"),
    ("audit.full_ms", "ms"),
    ("snapshot.ms", "ms"),
    ("restore.ms", "ms"),
    ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
];

fn plain<'a>(
    samples: &'a [(Kind, Sample)],
    keep: impl Fn(Config) -> bool + 'a,
) -> impl Iterator<Item = &'a Sample> + 'a {
    samples.iter().filter_map(move |(k, s)| match k {
        Kind::Plain(c) if keep(*c) => Some(s),
        _ => None,
    })
}

// Every time below is at the reference host speed (`Sample::time`).

fn throughput(s: &Sample) -> f64 {
    s.get("steps") / s.time("run_s")
}

fn e2e_of(s: &Sample) -> f64 {
    s.time("setup_s") + s.time("run_s")
}

/// The end-to-end metrics of one workload's untraced samples.
pub fn e2e(samples: &[(Kind, Sample)]) -> Vec<Metric> {
    let default = |c: Config| c == Config::Default;
    let of = |keep: &dyn Fn(Config) -> bool, f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        plain(samples, keep).map(f).collect()
    };
    e2e_names()
        .into_iter()
        .map(|(name, unit)| {
            let values = match name.as_str() {
                "setup_s" => of(&|_| true, &|s| s.time("setup_s")),
                "e2e_s" => of(&default, &e2e_of),
                "audited_steps_per_s" => of(&|c| c == Config::Audited, &throughput),
                "peak_rss_mb" => of(&default, &|s| s.get("rss_mb")),
                "peak_heap_words" => of(&default, &|s| s.get("peak_heap_words")),
                "steps" => of(&default, &|s| s.get("steps")),
                per_backend => {
                    let b = Backend::ALL
                        .into_iter()
                        .find(|b| per_backend == format!("steps_per_s.{b}"))
                        .expect("e2e_names lists only known metrics");
                    of(&|c| c != Config::Audited && c.backend() == b, &throughput)
                }
            };
            Metric::new(name, unit, values)
        })
        .collect()
}

fn median(values: impl Iterator<Item = f64>) -> Option<f64> {
    Metric::new("", "", values.collect())
        .summary()
        .map(|s| s.median)
}

/// The per-layer metrics of one workload's traced run; `calib_s` holds the
/// run's calibration kernel times.
pub fn per_layer(samples: &[(Kind, Sample)], calib_s: &[f64]) -> Vec<Metric> {
    let of_kind = |keep: &dyn Fn(&Kind) -> bool| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(_, s)| s)
            .collect()
    };
    let traced = of_kind(&|k| matches!(k, Kind::Traced(_)));
    let probes = of_kind(&|k| matches!(k, Kind::Probe { .. }));
    // The run's own counters come from the untraced runs the end-to-end
    // metrics time (traced runs count the same).
    let untraced = of_kind(&|k| *k == Kind::Plain(Config::Default));
    let bytecode = |c: Config| c != Config::Audited && c.backend() == Backend::Bytecode;
    let steps = median(traced.iter().map(|s| s.get("steps"))).unwrap_or(0.0);
    // Audited minus bare bytecode run time, per step.
    let audit_us = median(plain(samples, |c| c == Config::Audited).map(|s| s.time("run_s")))
        .zip(median(plain(samples, bytecode).map(|s| s.time("run_s"))))
        .map(|(audited, bare)| (audited - bare) / steps * 1e6);
    let overhead = median(traced.iter().map(|s| e2e_of(s)))
        .zip(median(untraced.iter().map(|s| e2e_of(s))))
        .map(|(traced, untraced)| traced / untraced);

    let over = |set: &[&Sample], f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        set.iter().map(|s| f(s)).collect()
    };
    let ratio = |set: &[&Sample], num: &str, den: &[&str]| {
        over(set, &|s| {
            let d: f64 = den.iter().map(|k| s.get(k)).sum();
            if d == 0.0 {
                0.0
            } else {
                s.get(num) / d
            }
        })
    };
    LAYER_NAMES
        .iter()
        .map(|&(name, unit)| {
            let values = match name {
                "bc_compile.ms" | "audit.full_ms" | "snapshot.ms" | "restore.ms" => {
                    over(&probes, &|s| s.time(&name.replace('.', "_")))
                }
                "host.calib_ms" => calib_s.iter().map(|t| t * 1e3).collect(),
                "audit.us_per_step" => audit_us.into_iter().collect(),
                "trace.overhead" => overhead.into_iter().collect(),
                "gc.step_share" => ratio(&traced, "gc.steps", &["steps"]),
                "intern.val_hit_ratio" => ratio(
                    &untraced,
                    "intern.val_hits",
                    &["intern.val_hits", "intern.val_nodes"],
                ),
                "intern.lazy_force_ratio" => {
                    ratio(&untraced, "intern.lazy_forced", &["intern.lazy_deferred"])
                }
                "mutator.steps" => over(&traced, &|s| s.get("steps") - s.get("gc.steps")),
                "mutator.ms" => over(&traced, &|s| {
                    s.span_ms("run") - s.span_ms("load") - s.span_ms("gc")
                }),
                // Stages, `certify`, `load` and `gc`: the spans' total.
                timed if timed.ends_with(".ms") => {
                    let span = timed.trim_end_matches(".ms");
                    over(&traced, &|s| s.span_ms(span))
                }
                // Counted by the telemetry recorder or at certification.
                "gc.steps" | "gc.words_copied" | "gc.words_promoted" | "cert.blocks" => {
                    over(&traced, &|s| s.get(name))
                }
                counter => over(&untraced, &|s| s.get(counter)),
            };
            Metric::new(name, unit, values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let m = Metric::new("x", "s", vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        let s = m.summary().unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(Metric::new("x", "s", vec![]).summary(), None);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = e2e_names().into_iter().map(|(n, _)| n).collect();
        names.extend(LAYER_NAMES.iter().map(|(n, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = e2e_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("\"end_to_end\""), e2e);
        let layers: Vec<String> = LAYER_NAMES.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("\"per_layer\""), layers);
    }
}
