//! # rubick-obs
//!
//! The **event spine** of the Rubick reproduction: a typed vocabulary of
//! simulation events ([`SimEvent`]) plus pluggable consumers
//! ([`EventSink`]).
//!
//! Every state transition inside the simulation engine emits exactly one
//! event; everything downstream — the `SimReport`-style summaries, the
//! decision audit trail, JSONL logs, fault metrics — is a *fold* over
//! this stream, so metrics have a single source of truth.
//!
//! Design constraints:
//!
//! * **Primitives only.** Events carry `f64` times, `u64` job ids and plain
//!   strings, never simulator types, so this crate sits below `rubick-sim`
//!   with no dependency cycle.
//! * **Deterministic.** Events never contain wall-clock time; host-side
//!   round latencies travel through the separate
//!   [`EventSink::on_round_latency`] hook so JSONL logs of a deterministic
//!   run are byte-identical across machines and thread counts.
//! * **Lossless JSONL.** [`SimEvent::to_jsonl`] prints floats with Rust's
//!   shortest round-trip formatting and [`SimEvent::from_jsonl`] parses the
//!   raw token back, so `serialize ∘ parse` is the identity on the values
//!   the engine produces.
//! * **One JSON codec.** [`JsonWriter`] encodes and [`JsonObject`] decodes
//!   every flat JSON line the workspace writes or reads — events, serve
//!   journal and reply lines, sweep rows — so no other crate formats JSON
//!   by hand. [`parse_log_line`] is the one classifier of a stream line:
//!   schema header, event, or any other record.
//!
//! `SimReport` here refers to `rubick_sim::metrics::SimReport`, the fold
//! implemented by `rubick_sim::report::ReportSink` on top of this crate.
//!
//! The code sits in three private modules, re-exported here: `json` (the
//! codec), `event` (the vocabulary, the schema header and the log reader)
//! and `sinks`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod event;
mod json;
mod sinks;

pub use event::{
    params_from_str, params_to_str, parse_log_line, read_event_log_tolerant, schema_header_line,
    DecisionKind, EventLog, EventLogError, LogLine, SimEvent, SCHEMA_VERSION,
};
pub use json::{EventParseError, JsonObject, JsonWriter};
pub use sinks::{
    EventSink, FanoutSink, FaultMetricsSink, JsonlSink, NullSink, ProgressSink, UtilTimelineSink,
    VecSink,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Write};

    fn sample_events() -> Vec<SimEvent> {
        vec![
            SimEvent::JobSubmitted {
                at: 0.0,
                job: 1,
                tenant: "team-\"a\"".into(),
                class: "guaranteed".into(),
                model: "gpt2".into(),
                gpus: 8,
                cpus: 32,
                mem_gb: 200.5,
                plan: "DP(8)".into(),
            },
            SimEvent::RoundStarted {
                at: 0.0,
                round: 1,
                active_jobs: 1,
            },
            SimEvent::DecisionApplied {
                at: 0.0,
                job: 1,
                kind: DecisionKind::Launch,
                gpus: 8,
                plan: "DP(8)".into(),
                throughput: 123.456789012345,
            },
            SimEvent::Reconfigured {
                at: 600.0,
                job: 1,
                gpus: 4,
                plan: "TP(4)\nnext".into(),
                delay: 31.4159,
            },
            SimEvent::LaunchFailed {
                at: 600.0,
                job: 2,
                reason: "node 0 overcommitted: \\ backslash".into(),
            },
            SimEvent::DecisionApplied {
                at: 900.0,
                job: 1,
                kind: DecisionKind::Preempt,
                gpus: 4,
                plan: "TP(4)".into(),
                throughput: 0.0,
            },
            SimEvent::JobFinished {
                at: 1234.5678901234567,
                job: 1,
                tenant: "".into(),
                class: "best-effort".into(),
                model: "resnet50".into(),
                submit_time: 0.1,
                first_start: Some(2.5),
                reconfig_count: 3,
                reconfig_time: 93.0,
                reconfig_gpu_seconds: 372.0,
                gpu_seconds: 1e6,
                runtime: 0.3333333333333333,
                target_batches: 10_000,
                baseline_throughput: None,
                avg_throughput: 7.25,
            },
            SimEvent::TickSkipped {
                at: 3600.0,
                round: 2,
            },
            SimEvent::ModelRefit {
                at: 4200.0,
                model: "llama-7b".into(),
                shift: 0.23456789,
                old_params: params_to_str(&[1.5, 4.0, 0.01, 0.5, 2.0, 3.0, 0.02]),
                new_params: params_to_str(&[1.25, 3.5, 0.015, 0.45, 2.5, 2.75, 0.018]),
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            let back = SimEvent::from_jsonl(&line).unwrap();
            assert_eq!(ev, back, "line: {line}");
            // Serialization is a fixed point: re-encoding the parsed event
            // yields the same bytes.
            assert_eq!(back.to_jsonl(), line);
        }
    }

    #[test]
    fn floats_survive_shortest_round_trip() {
        let ev = SimEvent::TickSkipped {
            at: f64::from_bits(0x3FD5_5555_5555_5555), // 1/3
            round: u64::MAX,
        };
        let back = SimEvent::from_jsonl(&ev.to_jsonl()).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SimEvent::from_jsonl("").is_err());
        assert!(SimEvent::from_jsonl("{}").is_err());
        assert!(SimEvent::from_jsonl("{\"type\":\"nope\"}").is_err());
        assert!(SimEvent::from_jsonl("{\"type\":\"tick_skipped\"}").is_err());
        assert!(
            SimEvent::from_jsonl("{\"type\":\"tick_skipped\",\"at\":1,\"round\":2} x").is_err()
        );
        assert!(
            SimEvent::from_jsonl("{\"type\":\"tick_skipped\",\"at\":\"x\",\"round\":2}").is_err()
        );
    }

    #[test]
    fn jsonl_sink_writes_header_then_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.on_event(&ev);
        }
        sink.flush().unwrap();
        assert_eq!(sink.events_written(), sample_events().len() as u64);
        let bytes = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            parse_log_line(lines.next().unwrap()).unwrap(),
            LogLine::Schema(SCHEMA_VERSION)
        );
        let parsed: Vec<SimEvent> = lines
            .map(|l| match parse_log_line(l).unwrap() {
                LogLine::Event(ev) => ev,
                other => panic!("expected an event line, got {other:?}"),
            })
            .collect();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn empty_jsonl_sink_writes_nothing() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.flush().unwrap();
        assert!(sink.writer.into_inner().unwrap().is_empty());
    }

    #[test]
    fn parser_tolerates_unknown_fields() {
        // A newer writer may add fields; lookups go by key, so parsing
        // must ignore the extras — for both events and the header.
        let line = "{\"type\":\"tick_skipped\",\"at\":1.5,\"round\":2,\"new_field\":\"x\"}";
        assert_eq!(
            SimEvent::from_jsonl(line).unwrap(),
            SimEvent::TickSkipped { at: 1.5, round: 2 }
        );
        let header = "{\"type\":\"schema\",\"version\":2,\"generator\":\"future\"}";
        assert_eq!(parse_log_line(header).unwrap(), LogLine::Schema(2));
        // Unknown event *types* are still an error.
        assert!(SimEvent::from_jsonl("{\"type\":\"wormhole\",\"at\":0}").is_err());
    }

    #[test]
    fn fault_events_round_trip() {
        let events = vec![
            SimEvent::NodeFailed { at: 10.0, node: 3 },
            SimEvent::NodeRecovered { at: 20.0, node: 3 },
            SimEvent::JobPreemptedByFault {
                at: 10.0,
                job: 7,
                node: 3,
                gpus: 8,
                plan: "DP(8)".into(),
            },
            SimEvent::JobRestarted {
                at: 15.5,
                job: 7,
                gpus: 4,
                plan: "TP(4)".into(),
                penalty: 120.0,
            },
        ];
        for ev in events {
            let line = ev.to_jsonl();
            assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
            assert_eq!(parse_log_line(&line).unwrap(), LogLine::Event(ev));
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let mut sink = JsonlSink::new(shared.clone());
            sink.on_event(&SimEvent::TickSkipped { at: 1.0, round: 1 });
            // No flush: drop must deliver the buffered lines.
        }
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "header + one event, got: {text:?}");
        assert_eq!(
            parse_log_line(lines[0]).unwrap(),
            LogLine::Schema(SCHEMA_VERSION)
        );
    }

    #[test]
    fn jsonl_sink_reports_write_errors_on_flush() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Broken);
        for _ in 0..5000 {
            sink.on_event(&SimEvent::TickSkipped { at: 0.0, round: 1 });
        }
        assert!(sink.flush().is_err(), "error must surface at flush");
    }

    #[test]
    fn fault_metrics_fold_accounts_downtime_and_goodput() {
        let mut sink = FaultMetricsSink::new();
        sink.on_event(&SimEvent::NodeFailed { at: 100.0, node: 0 });
        sink.on_event(&SimEvent::JobPreemptedByFault {
            at: 100.0,
            job: 1,
            node: 0,
            gpus: 8,
            plan: "DP(8)".into(),
        });
        sink.on_event(&SimEvent::JobRestarted {
            at: 160.0,
            job: 1,
            gpus: 4,
            plan: "TP(4)".into(),
            penalty: 30.0,
        });
        sink.on_event(&SimEvent::NodeRecovered { at: 400.0, node: 0 });
        assert!(sink.any_faults());
        assert_eq!(sink.node_failures, 1);
        assert_eq!(sink.node_recoveries, 1);
        assert!((sink.node_downtime_secs - 300.0).abs() < 1e-9);
        assert_eq!(sink.fault_evictions, 1);
        assert_eq!(sink.restarts, 1);
        assert!((sink.mean_time_to_reschedule() - 60.0).abs() < 1e-9);
        // 8 GPUs idle for 60 s + 30 s penalty on the new 4 GPUs.
        assert!((sink.goodput_lost_gpu_seconds - (8.0 * 60.0 + 30.0 * 4.0)).abs() < 1e-9);
        assert_eq!(sink.nodes_still_down(), 0);
        assert_eq!(sink.jobs_awaiting_restart(), 0);
        assert!(sink.summary().contains("fault_evictions=1"));
        // A fault-free stream folds to silence.
        let mut clean = FaultMetricsSink::new();
        for ev in sample_events() {
            clean.on_event(&ev);
        }
        assert!(!clean.any_faults());
    }

    #[test]
    fn round_planned_round_trips_and_counts() {
        let ev = SimEvent::RoundPlanned {
            at: 600.0,
            round: 3,
            dirty: 2,
            clean: 40,
            reused: 30,
            searched: 12,
            classified: 5,
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(parse_log_line(&line).unwrap(), LogLine::Event(ev.clone()));
        assert_eq!(ev.kind(), "round_planned");
        assert_eq!(ev.at(), 600.0);
    }

    #[test]
    fn round_planned_parses_pre_delta_streams() {
        // Streams written before the searched/classified counters existed
        // carry five fields; missing counters read back as zero, while a
        // malformed present value still errors.
        let old = r#"{"type":"round_planned","at":600,"round":3,"dirty":2,"clean":40,"reused":30}"#;
        let ev = SimEvent::from_jsonl(old).unwrap();
        assert_eq!(
            ev,
            SimEvent::RoundPlanned {
                at: 600.0,
                round: 3,
                dirty: 2,
                clean: 40,
                reused: 30,
                searched: 0,
                classified: 0,
            }
        );
        let bad = r#"{"type":"round_planned","at":600,"round":3,"dirty":2,"clean":40,"reused":30,"searched":"nope"}"#;
        assert!(SimEvent::from_jsonl(bad).is_err());
    }

    #[test]
    fn job_cancelled_round_trips_and_counts() {
        let ev = SimEvent::JobCancelled {
            at: 42.5,
            job: 7,
            gpus: 8,
            plan: "DP(8)".into(),
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(parse_log_line(&line).unwrap(), LogLine::Event(ev.clone()));
        assert_eq!(ev.kind(), "job_cancelled");
        assert!(SimEvent::known_type("job_cancelled"));
        assert!(!SimEvent::known_type("schema"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rubick-obs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn read_event_log_classifies_lines() {
        let path = temp_path("classify.jsonl");
        let mut text = String::new();
        text.push_str(&schema_header_line());
        text.push('\n');
        for ev in sample_events() {
            text.push_str(&ev.to_jsonl());
            text.push('\n');
        }
        text.push_str("{\"type\":\"submit_op\",\"job\":9,\"at\":1.5}\r\n");
        text.push('\n'); // blank lines are skipped
        std::fs::write(&path, &text).unwrap();

        let log = read_event_log_tolerant(&path).unwrap().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(!log.torn_tail);
        assert_eq!(log.text, text);
        let lines = log.lines.clone();
        assert_eq!(lines.len(), sample_events().len() + 2);
        assert_eq!(log.raw(0), schema_header_line());
        assert_eq!(log.raw(1), sample_events()[0].to_jsonl());
        assert_eq!(
            log.raw(lines.len() - 1),
            "{\"type\":\"submit_op\",\"job\":9,\"at\":1.5}",
            "the raw text drops the CRLF"
        );
        assert_eq!(lines[0], LogLine::Schema(SCHEMA_VERSION));
        for (i, ev) in sample_events().into_iter().enumerate() {
            assert_eq!(lines[1 + i], LogLine::Event(ev));
        }
        match lines.last().unwrap() {
            LogLine::Other(obj) => {
                assert_eq!(obj.ty().unwrap(), "submit_op");
                assert_eq!(obj.uint("job").unwrap(), 9);
                assert_eq!(obj.num("at").unwrap(), 1.5);
                assert!(obj.contains("at"));
                assert!(!obj.contains("missing"));
                assert_eq!(obj.uint_or(3, "missing").unwrap(), 3);
                assert_eq!(obj.num_or(2.5, "missing").unwrap(), 2.5);
                assert_eq!(obj.opt_str("missing").unwrap(), None);
            }
            other => panic!("expected Other, got {other:?}"),
        }
    }

    #[test]
    fn tolerant_read_forgives_only_a_torn_tail() {
        let path = temp_path("torn.jsonl");
        let ev = SimEvent::TickSkipped { at: 1.0, round: 1 };
        // A log whose final line was cut mid-write.
        let mut text = String::new();
        text.push_str(&schema_header_line());
        text.push('\n');
        text.push_str(&ev.to_jsonl());
        text.push('\n');
        let whole = text.clone();
        text.push_str("{\"type\":\"tick_skip"); // torn
        std::fs::write(&path, &text).unwrap();
        let log = read_event_log_tolerant(&path).unwrap().unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.text, whole, "the torn line is not kept");
        assert_eq!(
            log.lines,
            vec![LogLine::Schema(SCHEMA_VERSION), LogLine::Event(ev.clone())]
        );
        // A malformed line *before* the end is a real error.
        let mut bad = String::new();
        bad.push_str("{\"type\":\"tick_skip\n");
        bad.push_str(&ev.to_jsonl());
        bad.push('\n');
        std::fs::write(&path, &bad).unwrap();
        let err = read_event_log_tolerant(&path).unwrap().unwrap_err();
        assert_eq!(err.line, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn progress_sink_tracks_phases_and_renders() {
        let mut sink = ProgressSink::new(Vec::new());
        sink.on_event(&SimEvent::JobSubmitted {
            at: 0.0,
            job: 1,
            tenant: "".into(),
            class: "guaranteed".into(),
            model: "gpt2".into(),
            gpus: 4,
            cpus: 16,
            mem_gb: 100.0,
            plan: "DP(4)".into(),
        });
        assert_eq!((sink.running(), sink.queued()), (0, 1));
        sink.on_event(&SimEvent::RoundStarted {
            at: 0.0,
            round: 1,
            active_jobs: 1,
        });
        sink.on_event(&SimEvent::DecisionApplied {
            at: 0.0,
            job: 1,
            kind: DecisionKind::Launch,
            gpus: 4,
            plan: "DP(4)".into(),
            throughput: 10.0,
        });
        assert_eq!((sink.running(), sink.queued()), (1, 0));
        sink.on_event(&SimEvent::JobPreemptedByFault {
            at: 5.0,
            job: 1,
            node: 0,
            gpus: 4,
            plan: "DP(4)".into(),
        });
        assert_eq!((sink.running(), sink.queued()), (0, 1));
        sink.on_event(&SimEvent::Reconfigured {
            at: 6.0,
            job: 1,
            gpus: 2,
            plan: "DP(2)".into(),
            delay: 15.0,
        });
        assert_eq!((sink.running(), sink.queued()), (1, 0));
        sink.on_event(&SimEvent::JobFinished {
            at: 100.0,
            job: 1,
            tenant: "".into(),
            class: "guaranteed".into(),
            model: "gpt2".into(),
            submit_time: 0.0,
            first_start: Some(0.0),
            reconfig_count: 1,
            reconfig_time: 15.0,
            reconfig_gpu_seconds: 30.0,
            gpu_seconds: 350.0,
            runtime: 100.0,
            target_batches: 100,
            baseline_throughput: Some(10.0),
            avg_throughput: 9.0,
        });
        sink.on_event(&SimEvent::TickSkipped {
            at: 100.0,
            round: 2,
        });
        assert_eq!(sink.finished(), 1);
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert!(text.contains("\r[sim t=0s] running=0 queued=1 finished=0"));
        assert!(text.contains("\r[sim t=100s] running=0 queued=0 finished=1"));
        assert!(text.ends_with('\n'));
    }

    /// Records what a sink sees: events and round latencies.
    #[derive(Default)]
    struct Recorder {
        events: Vec<SimEvent>,
        latencies: Vec<u64>,
    }

    impl EventSink for Recorder {
        fn on_event(&mut self, event: &SimEvent) {
            self.events.push(event.clone());
        }

        fn on_round_latency(&mut self, nanos: u64) {
            self.latencies.push(nanos);
        }
    }

    #[test]
    fn fanout_sink_of_two_feeds_both() {
        let mut a = Recorder::default();
        let mut b = VecSink::default();
        {
            let mut fan = FanoutSink::new();
            fan.push(&mut a);
            fan.push(&mut b);
            for ev in sample_events() {
                fan.on_event(&ev);
            }
            fan.on_round_latency(10);
            fan.flush().unwrap();
        }
        assert_eq!(a.events, sample_events());
        assert_eq!(a.latencies, [10]);
        assert_eq!(b.events, sample_events());
    }

    #[test]
    fn fanout_sink_feeds_all_in_order() {
        let mut a = Recorder::default();
        let mut b = VecSink::default();
        let mut c = VecSink::default();
        {
            let mut fan = FanoutSink::new();
            assert!(fan.is_empty());
            fan.push(&mut a);
            fan.push(&mut b);
            fan.push(&mut c);
            assert_eq!(fan.len(), 3);
            for ev in sample_events() {
                fan.on_event(&ev);
            }
            fan.on_round_latency(10);
            fan.flush().unwrap();
        }
        assert_eq!(a.events, sample_events());
        assert_eq!(a.latencies, [10]);
        assert_eq!(b.events, sample_events());
        assert_eq!(c.events, b.events);
    }

    #[test]
    fn params_codec_round_trips_bit_exactly() {
        let params = [
            1.5,
            4.0,
            f64::from_bits(0x3FD5_5555_5555_5555), // 1/3
            0.45,
            2.5,
            1e-12,
            0.0,
        ];
        let s = params_to_str(&params);
        let back = params_from_str(&s).unwrap();
        for i in 0..7 {
            assert_eq!(params[i].to_bits(), back[i].to_bits(), "component {i}");
        }
        assert!(params_from_str("1,2,3").is_err());
        assert!(params_from_str("1,2,3,4,5,6,7,8").is_err());
        assert!(params_from_str("1,2,3,4,5,six,7").is_err());
    }

    #[test]
    fn model_refit_round_trips() {
        let ev = SimEvent::ModelRefit {
            at: 1.0,
            model: "gpt2".into(),
            shift: 0.2,
            old_params: "1,1,1,1,1,1,1".into(),
            new_params: "2,2,2,2,2,2,2".into(),
        };
        let line = ev.to_jsonl();
        assert_eq!(SimEvent::from_jsonl(&line).unwrap(), ev, "line: {line}");
        assert_eq!(ev.kind(), "model_refit");
        assert!(SimEvent::known_type("model_refit"));
    }

    #[test]
    fn util_timeline_tracks_busy_gpus_per_round() {
        let mut sink = UtilTimelineSink::new(Vec::new(), 2, 8);
        let events = vec![
            SimEvent::RoundStarted {
                at: 0.0,
                round: 1,
                active_jobs: 1,
            },
            SimEvent::DecisionApplied {
                at: 0.0,
                job: 1,
                kind: DecisionKind::Launch,
                gpus: 8,
                plan: "DP(8)".into(),
                throughput: 10.0,
            },
            SimEvent::RoundStarted {
                at: 600.0,
                round: 2,
                active_jobs: 2,
            },
            SimEvent::Reconfigured {
                at: 600.0,
                job: 1,
                gpus: 4,
                plan: "DP(4)".into(),
                delay: 30.0,
            },
            SimEvent::NodeFailed { at: 700.0, node: 1 },
            SimEvent::RoundStarted {
                at: 1200.0,
                round: 3,
                active_jobs: 2,
            },
            SimEvent::JobFinished {
                at: 1500.0,
                job: 1,
                tenant: "".into(),
                class: "best-effort".into(),
                model: "gpt2".into(),
                submit_time: 0.0,
                first_start: Some(0.0),
                reconfig_count: 1,
                reconfig_time: 30.0,
                reconfig_gpu_seconds: 120.0,
                gpu_seconds: 9000.0,
                runtime: 1500.0,
                target_batches: 100,
                baseline_throughput: None,
                avg_throughput: 10.0,
            },
            SimEvent::TickSkipped {
                at: 1800.0,
                round: 4,
            },
        ];
        for ev in &events {
            sink.on_event(ev);
        }
        sink.flush().unwrap();
        assert_eq!(sink.lines_written(), 4);
        assert_eq!(sink.busy_gpus(), 0);
        let bytes = sink.out.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Round 1: nothing running yet (decisions land after the round
        // event), full capacity up.
        assert_eq!(
            lines[0],
            "{\"type\":\"util\",\"at\":0,\"round\":1,\"busy_gpus\":0,\
             \"total_gpus\":16,\"up_gpus\":16,\"nodes_down\":0,\"util\":0}"
        );
        // Round 2: job 1 holds 8 GPUs from the launch.
        assert!(lines[1].contains("\"busy_gpus\":8"));
        assert!(lines[1].contains("\"util\":0.5"));
        // Round 3: reshape to 4 GPUs took effect and a node went down.
        assert!(lines[2].contains("\"busy_gpus\":4"));
        assert!(lines[2].contains("\"up_gpus\":8"));
        assert!(lines[2].contains("\"nodes_down\":1"));
        assert!(lines[2].contains("\"util\":0.25"));
        // Round 4 (skipped tick): the finish released everything.
        assert!(lines[3].contains("\"busy_gpus\":0"));
        assert!(lines[3].contains("\"round\":4"));
    }
}
