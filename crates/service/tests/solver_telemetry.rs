//! The Lanczos solver counters end to end. A test binary of its own: the
//! counters are process-global, and other tests' solves must not move
//! them between the reads below.

use graphio_graph::generators::{bhk_hypercube, fft_butterfly};
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::CompGraph;
use graphio_service::{analysis_body, client, serve, AnalyzeSpec, ServiceConfig};
use graphio_spectral::OwnedAnalyzer;

const COUNTERS: [(&str, &str); 3] = [
    ("lanczos_sweeps", "graphio_linalg_lanczos_sweeps_total"),
    ("lanczos_steps", "graphio_linalg_lanczos_steps_total"),
    (
        "reorth_second_passes",
        "graphio_linalg_reorth_second_passes_total",
    ),
];

fn linalg_counters(url: &str) -> [u64; 3] {
    let r = client::request("GET", url, "/stats", None).unwrap();
    let doc = parse(&r.body).unwrap();
    let linalg = doc.get("linalg").expect("/stats has a linalg block");
    COUNTERS.map(|(key, _)| {
        linalg
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("/stats linalg block carries {key}"))
    })
}

fn analyze_request(g: &CompGraph) -> (String, String) {
    let body = format!(
        "{{\"graph\":{},\"memories\":[4,16]}}",
        g.to_edge_list().to_json()
    );
    let offline = analysis_body(
        &OwnedAnalyzer::from_graph(g.clone()),
        &AnalyzeSpec::sweep(vec![4, 16]),
    );
    assert!(offline.contains("\"method\":\"lanczos\""), "{offline}");
    (body, offline)
}

/// A cold fft(7) `/analyze` (n = 1024, past the dense cutoff) runs
/// Lanczos sweeps and steps, and the counters say so on `/stats` and
/// `/metrics`; a hit moves none of them, and neither response body
/// changes: both equal the offline document. fft(7) never needs a second
/// re-orthogonalization pass; bhk(9)'s unnormalized Laplacian, whose
/// eigenvalue clusters cancel the first pass, does.
#[test]
fn cold_lanczos_analyze_moves_solver_counters_not_bodies() {
    let server = serve(&ServiceConfig::default()).expect("bind test server");
    let url = server.url();
    let (fft_req, fft_doc) = analyze_request(&fft_butterfly(7));
    let (bhk_req, bhk_doc) = analyze_request(&bhk_hypercube(9));

    let before = linalg_counters(&url);
    let r = client::request("POST", &url, "/analyze", Some(&fft_req)).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, fft_doc);
    let cold = linalg_counters(&url);
    assert!(cold[0] > before[0], "sweeps: {before:?} -> {cold:?}");
    // Each sweep takes at least one step.
    assert!(cold[1] - before[1] >= cold[0] - before[0]);

    let r = client::request("POST", &url, "/analyze", Some(&fft_req)).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, fft_doc);
    assert_eq!(linalg_counters(&url), cold, "a hit solves nothing");

    let r = client::request("POST", &url, "/analyze", Some(&bhk_req)).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, bhk_doc);
    let after = linalg_counters(&url);
    assert!(after[2] > cold[2], "second passes: {cold:?} -> {after:?}");

    let r = client::request("GET", &url, "/metrics", None).unwrap();
    let expo = graphio_obs::parse_metrics(&r.body).unwrap();
    for (i, (_, metric)) in COUNTERS.iter().enumerate() {
        assert_eq!(expo.value(metric, &[]), Some(after[i] as f64), "{metric}");
    }
}
