//! CLI golden test: the exact stdout bytes every output mode produces,
//! rendered through [`OutputMode`] from one fixed report and registry.
//! Guards the `--json`/`--jsonl`/`--telemetry`/`--trace` surface against
//! accidental format drift — downstream pipelines parse these bytes.

use underradar_bench::cli::OutputMode;
use underradar_telemetry::{Telemetry, TraceRecord};

fn fixed_registry() -> underradar_telemetry::Registry {
    let tel = Telemetry::with_trace(8);
    tel.count("netsim.events_processed", 42);
    tel.set_gauge("censor.tap.live_flows", 3);
    tel.tracer().record(TraceRecord {
        t_ns: 1500,
        seq: 0,
        stage: "stream",
        kind: "ooo_held",
        flow: None,
        fields: vec![],
    });
    tel.snapshot()
}

const REPORT: &str = "row one\nrow two \"quoted\"\n";

#[test]
fn golden_text() {
    let out = OutputMode::Text.render("e00_demo", REPORT, &fixed_registry());
    assert_eq!(out, REPORT);
}

#[test]
fn golden_text_with_telemetry() {
    let out = OutputMode::TextWithTelemetry.render("e00_demo", REPORT, &fixed_registry());
    assert_eq!(
        out,
        "row one\n\
         row two \"quoted\"\n\
         --- telemetry ---\n\
         counter netsim.events_processed = 42\n\
         counter telemetry.trace.dropped = 0\n\
         gauge   censor.tap.live_flows = 3\n\
         trace   1 records\n"
    );
}

#[test]
fn golden_json() {
    let out = OutputMode::Json.render("e00_demo", REPORT, &fixed_registry());
    assert_eq!(
        out,
        "{\"experiment\":\"e00_demo\",\
         \"report\":\"row one\\nrow two \\\"quoted\\\"\\n\",\
         \"telemetry\":{\
         \"counters\":{\"netsim.events_processed\":42,\"telemetry.trace.dropped\":0},\
         \"gauges\":{\"censor.tap.live_flows\":3},\
         \"histograms\":{}}}\n"
    );
}

#[test]
fn golden_jsonl() {
    let out = OutputMode::Jsonl.render("e00_demo", REPORT, &fixed_registry());
    assert_eq!(
        out,
        "{\"experiment\":\"e00_demo\",\"line\":0,\"text\":\"row one\"}\n\
         {\"experiment\":\"e00_demo\",\"line\":1,\"text\":\"row two \\\"quoted\\\"\"}\n\
         {\"experiment\":\"e00_demo\",\"telemetry\":{\
         \"counters\":{\"netsim.events_processed\":42,\"telemetry.trace.dropped\":0},\
         \"gauges\":{\"censor.tap.live_flows\":3},\
         \"histograms\":{}}}\n"
    );
}

#[test]
fn golden_trace() {
    let out = OutputMode::Trace.render("e00_demo", REPORT, &fixed_registry());
    assert_eq!(
        out,
        "row one\n\
         row two \"quoted\"\n\
         --- trace ---\n\
         {\"kind\":\"ooo_held\",\"seq\":0,\"stage\":\"stream\",\"t_ns\":1500}\n\
         --- explain ---\n\
         trace verdict=(none) steps=1 because=stream.ooo_held@t=1500ns\n\
         \x20 t=1500ns [stream] ooo_held\n"
    );
}
