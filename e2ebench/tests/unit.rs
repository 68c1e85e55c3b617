//! Unit tests of the benchmark's own logic: percentiles, open-loop
//! accounting, span self time, seeded fixtures, and the parsers it reads
//! the server and the kernel with.

use std::time::{Duration, Instant};

use e2ebench::client::labels_of;
use e2ebench::fixture::{bodies, Rng, Target, Workload, DATASET};
use e2ebench::host::{parse_startup, tcp_ext, vm_hwm_mb};
use e2ebench::stats::{due, lag_grows, nearest_rank, tail, OpenSample};
use e2ebench::trace::{self_time_by_name, self_times_ns, Span, Tracer};
use hamlet_core::feature_config::{build_splits, FeatureConfig};
use hamlet_ml::dataset::{CatDataset, FeatureMeta, Provenance};
use hamlet_relation::domain::CatDomain;

fn ascending(n: u32) -> Vec<f64> {
    (1..=n).map(f64::from).collect()
}

#[test]
fn nearest_rank_is_the_smallest_sample_covering_the_percentile() {
    let v = ascending(100);
    assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
    assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
    assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
    assert_eq!(nearest_rank(&v, 0.5), Some(1.0));
    assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
    assert_eq!(nearest_rank(&v, 0.0), None);
    // 99% of 1000 is rank 990 exactly, despite float rounding.
    assert_eq!(nearest_rank(&ascending(1000), 99.0), Some(990.0));
}

#[test]
fn a_tail_percentile_needs_ten_samples_beyond_it() {
    // p99 of 999 samples is rank 990: only 9 samples lie above it.
    assert_eq!(tail(&ascending(999), 99.0), None);
    // p99 of 1000 samples is rank 990 with 10 above it.
    assert_eq!(tail(&ascending(1000), 99.0), Some(990.0));
    // The median of 20 samples has 10 above it; of 19, only 9.
    assert_eq!(tail(&ascending(20), 50.0), Some(10.0));
    assert_eq!(tail(&ascending(19), 50.0), None);
}

#[test]
fn open_loop_latency_runs_from_the_due_time() {
    let ms = Duration::from_millis;
    let s = OpenSample::new(ms(10), ms(13), ms(15));
    assert!((s.latency_ms - 5.0).abs() < 1e-9, "{s:?}");
    assert!((s.lag_ms - 3.0).abs() < 1e-9, "{s:?}");
    // Sent on time: no lag, latency is the service time.
    let s = OpenSample::new(ms(10), ms(10), ms(11));
    assert_eq!((s.latency_ms, s.lag_ms), (1.0, 0.0));
    // The schedule: offset plus k periods.
    assert_eq!(due(ms(1), ms(4), 0), ms(1));
    assert_eq!(due(ms(1), ms(4), 3), ms(13));
}

#[test]
fn lag_growth_is_flagged_only_when_the_end_falls_behind() {
    assert!(!lag_grows(&[]));
    assert!(!lag_grows(&[0.01; 100]));
    // A transient stall in the middle does not count.
    let mut blip = vec![0.01; 100];
    blip[50] = 20.0;
    assert!(!lag_grows(&blip));
    // A generator that falls steadily behind does.
    let growing: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
    assert!(lag_grows(&growing));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_once() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)), // overlaps a by 10
        span("a.inner", 15, 20, Some(1)),
        span("late", 90, 120, Some(0)), // clipped to the parent's end
    ];
    assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 25, 30, 5, 30]);
    let by = self_time_by_name(&spans);
    assert_eq!(by["root"], (40, 1));
    assert_eq!(by["a"], (25, 1));
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut tr = Tracer::new(Instant::now());
    let out = tr.span("outer", |tr| {
        tr.span("inner", |_| 7);
        tr.span("inner", |_| 8)
    });
    assert_eq!(out, 8);
    tr.record("external", Instant::now(), Instant::now());
    let s = tr.spans();
    assert_eq!(s.len(), 4);
    assert_eq!((s[0].name, s[0].parent), ("outer", None));
    assert_eq!(
        (s[1].parent, s[2].parent, s[3].parent),
        (Some(0), Some(0), None)
    );
    assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    assert_eq!(tr.durations_ns("inner").len(), 2);
}

fn synthetic(seed: u64, n: usize, d: usize, k: u32) -> CatDataset {
    let mut rng = Rng::new(seed);
    let features = (0..d)
        .map(|j| {
            FeatureMeta::with_domain(
                format!("f{j}"),
                Provenance::Home,
                CatDomain::synthetic(format!("f{j}"), k).into_shared(),
            )
        })
        .collect();
    let rows = (0..n * d).map(|_| rng.below(k as usize) as u32).collect();
    let labels = (0..n).map(|_| rng.below(2) == 1).collect();
    CatDataset::new(features, rows, labels).unwrap()
}

#[test]
fn bodies_are_a_function_of_the_seed() {
    let ds = synthetic(1, 50, 4, 6);
    let contract = ds.contract();
    let targets = [
        Target {
            name: "study-tree-joinall",
            contract: &contract,
            rows: &ds,
        },
        Target {
            name: "study-ann-nojoin",
            contract: &contract,
            rows: &ds,
        },
    ];
    for w in Workload::ALL {
        let a = bodies(w, 7, &targets).unwrap();
        assert_eq!(a, bodies(w, 7, &targets).unwrap(), "{}", w.name());
        assert_ne!(a, bodies(w, 8, &targets).unwrap(), "{}", w.name());
        for b in &a {
            let n = b.rows.len();
            match w {
                Workload::SmallRaw => assert!((1..=8).contains(&n)),
                Workload::MlpBatch | Workload::Study => assert_eq!(n, 64),
            }
            assert!(w.serves(targets[b.target].name));
            assert!(b.json.contains(if w.raw() {
                "\"rows_raw\":"
            } else {
                "\"rows\":"
            }));
            assert!(b.json.contains(targets[b.target].name));
        }
        // Raw bodies carry the labels the contract decodes the codes to.
        if w.raw() {
            let labels = contract.decode_row(&a[0].rows[0]).unwrap();
            assert!(a[0].json.contains(&serde_json::to_string(&labels).unwrap()));
        }
    }
    // The study serves only its NoJoin ANN; the others spread over all.
    let study = bodies(Workload::Study, 7, &targets).unwrap();
    assert!(study.iter().all(|b| b.target == 1));
    let raw = bodies(Workload::SmallRaw, 7, &targets).unwrap();
    assert!(raw.iter().any(|b| b.target == 0) && raw.iter().any(|b| b.target == 1));
    assert!(bodies(Workload::Study, 7, &targets[..1]).is_err());
}

#[test]
fn training_data_is_a_function_of_the_seed() {
    let test_rows = |seed| {
        let g = hamlet_serve::train::resolve_dataset(DATASET, 400, seed).unwrap();
        let test = build_splits(&g, &FeatureConfig::JoinAll).unwrap().test;
        assert_eq!(test.n_features(), 27);
        (0..test.n_rows())
            .map(|i| test.row(i).to_vec())
            .collect::<Vec<_>>()
    };
    assert_eq!(test_rows(3), test_rows(3));
    assert_ne!(test_rows(3), test_rows(4));
}

#[test]
fn predict_labels_are_read_from_the_response() {
    let body = br#"{"model":"m@1","labels":[true, false,true],"tiers":null,"latency_ms":0.01}"#;
    assert_eq!(labels_of(body), Some(vec![true, false, true]));
    assert_eq!(labels_of(br#"{"labels":[]}"#), Some(vec![]));
    assert_eq!(labels_of(br#"{"labels":[1]}"#), None);
    assert_eq!(labels_of(br#"{"error":"x"}"#), None);
}

#[test]
fn server_and_kernel_text_is_parsed() {
    let line = "hamlet-serve listening on http://127.0.0.1:40123 (2 executor(s), 1 reactor(s), \
                1024 max conns, 1 model(s) warm from x, Heap load mode)";
    let (addr, executors, reactors) = parse_startup(line).unwrap();
    assert_eq!(addr.port(), 40123);
    assert_eq!((executors, reactors), (2, 1));
    assert!(parse_startup("something else").is_none());

    let netstat = "TcpExt: SyncookiesSent ListenOverflows TCPSynRetrans\nTcpExt: 0 7 3\n\
                   IpExt: InNoRoutes\nIpExt: 0\n";
    let ext = tcp_ext(netstat);
    assert_eq!((ext["ListenOverflows"], ext["TCPSynRetrans"]), (7, 3));

    assert_eq!(vm_hwm_mb("Name:\tx\nVmHWM:\t  2048 kB\n"), Some(2.0));
    assert_eq!(vm_hwm_mb("Name:\tx\n"), None);
}
