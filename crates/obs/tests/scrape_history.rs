//! The scraper's windowed history: fine windows read the scrape points,
//! coarse windows read each metric's rollup. The literals below are what
//! the two-ring per-metric store the scraper replaced returned for the same
//! scrapes.

use mr_obs::{Obs, Resolution};
use mr_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime(SimDuration::from_secs(s).nanos())
}

/// 30 scrapes a second apart: the counter `early` from the first, the
/// gauge `late` registered before the fourth (scrape 3), so its coarse
/// buckets close at scrapes 12 and 22 rather than 9, 19 and 29.
fn late_metric_run() -> Obs {
    let obs = Obs::new();
    let early = obs.registry.counter("early", &[]);
    let mut late = None;
    for i in 0..30u64 {
        if i == 3 {
            late = Some(obs.registry.gauge("late", &[]));
        }
        early.add(i);
        if let Some(g) = &late {
            g.set((i * 7 % 5) as i64 - 2);
        }
        obs.scrape(secs(i));
    }
    obs
}

#[test]
fn a_metric_first_scraped_late_keeps_its_history_and_bucket_phase() {
    let obs = late_metric_run();
    let store = &obs.scraper;
    let (from, to) = (SimTime::ZERO, secs(100));

    let fine = store.window("late", Resolution::Fine, from, to);
    let want: Vec<(SimTime, i64)> = (3..30u64)
        .map(|i| (secs(i), (i * 7 % 5) as i64 - 2))
        .collect();
    assert_eq!(fine, want);
    assert_eq!(
        store.window("late", Resolution::Coarse, from, to),
        vec![(secs(12), 2), (secs(22), 2)]
    );
    assert_eq!(
        store.window("early", Resolution::Coarse, from, to),
        vec![(secs(9), 45), (secs(19), 190), (secs(29), 435)]
    );
    assert_eq!(
        store.rate_milli("early", Resolution::Coarse, from, to),
        Some(19_500)
    );
    assert_eq!(store.metrics(), vec!["early", "late"]);
    assert_eq!(
        store.export_json(&["late", "missing"]),
        "{\n  \"late\": {\"fine_dropped\": 0, \"coarse_dropped\": 0, \"fine\": [\
         [3000000000, -1], [4000000000, 1], [5000000000, -2], [6000000000, 0], \
         [7000000000, 2], [8000000000, -1], [9000000000, 1], [10000000000, -2], \
         [11000000000, 0], [12000000000, 2], [13000000000, -1], [14000000000, 1], \
         [15000000000, -2], [16000000000, 0], [17000000000, 2], [18000000000, -1], \
         [19000000000, 1], [20000000000, -2], [21000000000, 0], [22000000000, 2], \
         [23000000000, -1], [24000000000, 1], [25000000000, -2], [26000000000, 0], \
         [27000000000, 2], [28000000000, -1], [29000000000, 1]], \"coarse\": [\
         [12000000000, 2, -2, 2, 0, 10], [22000000000, 2, -2, 2, 0, 10]]},\n  \
         \"missing\": {\"fine_dropped\": 0, \"coarse_dropped\": 0, \"fine\": [], \
         \"coarse\": []}\n}\n"
    );
}

/// Fine windows hold as many scrapes as the scrape ring: 1,100 scrapes are
/// all there (the per-metric ring of 1,024 samples kept the newest 1,024).
#[test]
fn fine_window_holds_every_retained_scrape() {
    let obs = Obs::new();
    let c = obs.registry.counter("c", &[]);
    for i in 0..1100u64 {
        c.inc();
        obs.scrape(SimTime(i));
    }
    let fine = obs
        .scraper
        .window("c", Resolution::Fine, SimTime::ZERO, SimTime(2000));
    assert_eq!(fine.len(), 1100);
    assert_eq!(fine.first(), Some(&(SimTime(0), 1)));
    assert!(obs
        .scraper
        .export_json(&["c"])
        .contains("\"fine_dropped\": 0"));
}

/// Past the scrape ring's 4,096 points, fine windows keep the newest 4,096
/// and a metric's `fine_dropped` counts the evicted points that carried it.
#[test]
fn fine_dropped_counts_evicted_points_that_carried_the_metric() {
    let obs = Obs::new();
    let c = obs.registry.counter("c", &[]);
    for i in 0..4100u64 {
        if i == 2 {
            obs.registry.gauge("g", &[]).set(1);
        }
        c.inc();
        obs.scrape(SimTime(i));
    }
    let fine = |m| {
        obs.scraper
            .window(m, Resolution::Fine, SimTime::ZERO, SimTime(5000))
    };
    assert_eq!((fine("c").len(), fine("g").len()), (4096, 4096));
    assert_eq!(obs.scraper.dropped(), 4);
    let json = obs.scraper.export_json(&["c", "g"]);
    assert!(json.contains("\"c\": {\"fine_dropped\": 4, \"coarse_dropped\": 0"));
    assert!(json.contains("\"g\": {\"fine_dropped\": 2, \"coarse_dropped\": 0"));
}
