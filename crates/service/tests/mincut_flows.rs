//! The engine's max-flow counter end to end. A test binary of its own:
//! the phase and request histograms it moves are process-global, and the
//! exact-delta checks in `obs.rs` must not see its traffic.

use graphio_graph::generators::bhk_hypercube;
use graphio_graph::json::{parse, JsonValue};
use graphio_graph::wl_classes;
use graphio_service::{client, serve, ServiceConfig};

/// `mincut_flows` counts the max-flows the class sweep actually ran: one
/// cold bhk(7) `/analyze` adds exactly its class count, on `/stats` and on
/// `/metrics`, and the count never reaches the response body.
#[test]
fn mincut_flows_count_one_max_flow_per_class() {
    let server = serve(&ServiceConfig::default()).expect("bind test server");
    let url = server.url();
    let flows = |url: &str| {
        let r = client::request("GET", url, "/stats", None).unwrap();
        parse(&r.body)
            .unwrap()
            .get("engine")
            .and_then(|e| e.get("mincut_flows"))
            .and_then(JsonValue::as_u64)
            .expect("/stats engine block carries mincut_flows")
    };
    let before = flows(&url);
    let g = bhk_hypercube(7);
    let classes = *wl_classes(&g).iter().max().unwrap() as u64 + 1;
    assert!(classes < g.n() as u64, "bhk classes merge vertices");
    let body_req = format!(
        "{{\"graph\":{},\"memories\":[4,8]}}",
        g.to_edge_list().to_json()
    );
    let r = client::request("POST", &url, "/analyze", Some(&body_req)).unwrap();
    assert_eq!(r.status, 200);
    assert!(!r.body.contains("flows"), "{}", r.body);
    assert_eq!(flows(&url) - before, classes);
    // A hit solves nothing.
    let r = client::request("POST", &url, "/analyze", Some(&body_req)).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(flows(&url) - before, classes);
    let r = client::request("GET", &url, "/metrics", None).unwrap();
    let expo = graphio_obs::parse_metrics(&r.body).unwrap();
    assert_eq!(
        expo.value("graphio_engine_mincut_flows_total", &[]),
        Some((before + classes) as f64)
    );
}
