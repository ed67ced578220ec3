//! The benchmark's own tests: the percentile rule, metric naming, seed
//! determinism of every workload generator, and a tiny-scale smoke run
//! of all four workloads against their oracles.

use std::path::Path;

use eleph_perfbench::gen::{self, Sizes};
use eleph_perfbench::output::{result_line, valid_name, valid_unit, Metric};
use eleph_perfbench::stats::{quartiles, tail, TAIL_BEYOND};
use eleph_perfbench::{run, sweep, Request, END_TO_END, EXTRA_WORKLOADS, PER_LAYER, WORKLOADS};

#[test]
fn tail_is_highest_percentile_with_ten_samples_beyond() {
    for n in [11usize, 12, 50, 100, 1000, 1234] {
        // Shuffled 1..=n, so the value at 1-based rank r is r.
        let xs: Vec<f64> = (1..=n).map(|i| ((i * 7919) % n + 1) as f64).collect();
        let t = tail(&xs).expect("more than ten samples");
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        assert_eq!(t.samples, n);
        assert_eq!(t.value, (n - TAIL_BEYOND) as f64);
        assert!((t.percentile - 100.0 * (n - TAIL_BEYOND) as f64 / n as f64).abs() < 1e-12);
    }
    let t = tail(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((t.percentile, t.value), (99.0, 990.0));
}

#[test]
fn tail_needs_more_than_ten_samples() {
    for n in 0..=TAIL_BEYOND {
        assert_eq!(tail(&vec![1.0; n]), None, "n = {n}");
    }
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
    // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 2.5, 3.75));
}

#[test]
fn metric_names_follow_the_rule() {
    for good in [
        "throughput",
        "core.sketch.spacesaving.record_ns",
        "a",
        "9x",
        "x-y_z.w",
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", ".x", "_x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_name(&"x".repeat(64)));
    for unit in ["ms", "s", "1/s", "count", "%", "MB", "us", "ratio"] {
        assert!(valid_unit(unit), "{unit}");
    }
    assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
}

#[test]
fn declared_metrics_are_valid_unique_and_match_benchmark_json() {
    let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for (i, name) in all.iter().enumerate() {
        assert!(valid_name(name), "{name}");
        assert!(!all[..i].contains(name), "{name} declared twice");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_unit(unit), "{name}: {unit}");
    }
    for w in WORKLOADS.iter().chain(&EXTRA_WORKLOADS) {
        assert!(valid_name(w));
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .collect();
    let expected: Vec<&str> = WORKLOADS.iter().copied().chain(all).collect();
    assert_eq!(
        declared, expected,
        "BENCHMARK.json lists workloads then metrics in code order"
    );
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} has unit {unit} in BENCHMARK.json"
        );
    }
}

#[test]
fn result_line_is_strict_json_shape() {
    let line = result_line(
        true,
        3,
        0,
        &[Metric::new("a.b", 1.25, "ms"), Metric::new("c", 2.0, "1/s")],
    );
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a.b":{"value":1.25,"unit":"ms"},"c":{"value":2,"unit":"1/s"}}}"#
    );
}

#[test]
#[should_panic(expected = "reported twice")]
fn result_line_rejects_repeated_names() {
    result_line(
        true,
        1,
        0,
        &[Metric::new("a", 1.0, "s"), Metric::new("a", 2.0, "s")],
    );
}

#[test]
fn pcap_generator_is_seed_deterministic() {
    let sizes = Sizes::tiny();
    let a = gen::pcap_workload(5, &sizes);
    let b = gen::pcap_workload(5, &sizes);
    let c = gen::pcap_workload(6, &sizes);
    assert!(a.records > 0);
    assert_eq!(a.pcap, b.pcap);
    assert_ne!(a.pcap, c.pcap);
}

#[test]
fn live_generator_is_seed_deterministic() {
    let sizes = Sizes::tiny();
    let a = gen::live_workload(5, &sizes);
    let b = gen::live_workload(5, &sizes);
    let c = gen::live_workload(6, &sizes);
    assert!(!a.metas.is_empty() && !a.updates.is_empty());
    assert_eq!(a.metas, b.metas);
    assert_eq!(a.updates, b.updates);
    assert_ne!(a.metas, c.metas);
}

#[test]
fn sketch_generator_is_seed_deterministic() {
    let sizes = Sizes::tiny();
    let a = gen::sketch_workload(5, &sizes);
    let b = gen::sketch_workload(5, &sizes);
    let c = gen::sketch_workload(6, &sizes);
    assert!(!a.metas.is_empty());
    assert_eq!(a.metas, b.metas);
    assert_ne!(a.metas, c.metas);
}

#[test]
fn sweep_reference_is_seed_deterministic() {
    let scale = Sizes::tiny().sweep_scale;
    let a = sweep::sweep_workload(5, scale).unwrap();
    let b = sweep::sweep_workload(5, scale).unwrap();
    let c = sweep::sweep_workload(6, scale).unwrap();
    assert_eq!(a.reference, b.reference);
    assert_ne!(a.reference, c.reference);
    assert_eq!(a.sections.len(), sweep::EXPERIMENTS);
    assert_eq!(a.sections.iter().sum::<usize>(), a.reference.len());
}

/// Every workload, untraced and traced, at tiny sizes: all operations
/// pass their oracles and every declared metric is present and finite.
#[test]
fn smoke_all_workloads_pass_their_oracles() {
    for workload in WORKLOADS.into_iter().chain(EXTRA_WORKLOADS) {
        for trace in [false, true] {
            let req = Request {
                workload,
                seed: 3,
                seconds: 0.05,
                trace,
                sizes: Sizes::tiny(),
                exe: Path::new(env!("CARGO_BIN_EXE_perfbench")),
            };
            let out = run(&req).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.attempted > 0, "{workload}");
            assert_eq!(out.failed, 0, "{workload} trace={trace}: {:#?}", out.report);
            assert!(out.correct);
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = if trace {
                PER_LAYER.iter()
            } else {
                END_TO_END.iter()
            }
            .map(|m| m.0)
            .collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{workload}: end-to-end {} is 0", m.name);
                }
            }
            let line = out.result_line();
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
        }
    }
}
