//! Adversarial input for the serve protocol: `ServeOp::parse` must answer
//! any line, valid or not, with an op or an op error, never a panic, and
//! its canonical serialization must round-trip.

use proptest::prelude::*;
use rubick_sim::job::JobClass;
use rubick_sim::serve::{ServeOp, SubmitOp};

/// Bytes that steer a mutation into the JSON grammar's corners, plus
/// multi-byte UTF-8 lead and continuation bytes.
const JSON_BYTES: &[u8] = b"{}[]\":,\\ \t\n0123456789.eE+-tnrfalsu\x00\x7f\xc3\xa9\xf0\x9f";

/// A byte: half the time one of [`JSON_BYTES`], otherwise any byte.
fn any_byte() -> impl Strategy<Value = u8> {
    (
        prop::bool::ANY,
        prop::sample::select(JSON_BYTES.to_vec()),
        0u32..256,
    )
        .prop_map(|(json, j, b)| if json { j } else { b as u8 })
}

/// Short strings over quotes, escapes, control characters and non-ASCII.
fn any_text() -> impl Strategy<Value = String> {
    let chars = vec![
        'a', 'z', '0', '-', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', 'ß',
        '\u{2028}', '😀',
    ];
    prop::collection::vec(prop::sample::select(chars), 0..10)
        .prop_map(|cs| cs.into_iter().collect())
}

/// Finite times, including negative, tiny and huge magnitudes.
fn any_time() -> impl Strategy<Value = f64> {
    (
        prop::sample::select(vec![1.0, -1.0, 1e-300, 1e300, 0.1]),
        -1e6f64..1e6,
    )
        .prop_map(|(scale, x)| scale * x)
}

fn any_opt_time() -> impl Strategy<Value = Option<f64>> {
    (prop::bool::ANY, any_time()).prop_map(|(some, t)| some.then_some(t))
}

fn any_submit() -> impl Strategy<Value = ServeOp> {
    (
        (0u64..u64::MAX, any_text(), 0u32..u32::MAX),
        (
            prop::bool::ANY,
            0u32..u32::MAX,
            0u64..u64::MAX,
            prop::bool::ANY,
        ),
        (any_text(), any_text(), any_opt_time()),
    )
        .prop_map(
            |(
                (job, model, gpus),
                (has_batch, batch, target_batches, best_effort),
                (tenant, plan, at),
            )| {
                ServeOp::Submit(SubmitOp {
                    job,
                    model,
                    gpus,
                    batch: has_batch.then_some(batch),
                    target_batches,
                    class: if best_effort {
                        JobClass::BestEffort
                    } else {
                        JobClass::Guaranteed
                    },
                    tenant,
                    plan,
                    at,
                })
            },
        )
}

/// Every op shape `parse` can return.
fn any_op() -> impl Strategy<Value = ServeOp> {
    (
        0u32..6,
        any_submit(),
        0u64..u64::MAX,
        any_opt_time(),
        any_time(),
    )
        .prop_map(|(kind, submit, job, at, until)| match kind {
            0 => submit,
            1 => ServeOp::Cancel { job, at },
            2 => ServeOp::Advance { until },
            3 => ServeOp::Status,
            4 => ServeOp::Snapshot,
            _ => ServeOp::Shutdown,
        })
}

/// Whether `err` is worded as a protocol-op error.
fn is_op_error(err: &str) -> bool {
    ["invalid op: ", "unknown op '", "unknown class '"]
        .iter()
        .any(|prefix| err.starts_with(prefix))
}

/// `op` serializes to a line that parses back to `op`, and re-serializing
/// that reproduces the line.
fn round_trips(op: &ServeOp) -> Result<(), TestCaseError> {
    let line = op.to_jsonl();
    let back = ServeOp::parse(&line);
    prop_assert_eq!(back.as_ref(), Ok(op), "line {}", line);
    prop_assert_eq!(back.unwrap().to_jsonl(), line);
    Ok(())
}

/// Parses `line`; an op must round-trip and an error must be an op error.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    match ServeOp::parse(line) {
        Ok(op) => round_trips(&op),
        Err(err) => {
            prop_assert!(is_op_error(&err), "{line:?}: {err}");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn valid_ops_round_trip(op in any_op()) {
        round_trips(&op)?;
    }

    #[test]
    fn arbitrary_bytes_get_an_op_or_an_op_error(
        bytes in prop::collection::vec(any_byte(), 0..80)
    ) {
        check_line(&String::from_utf8_lossy(&bytes))?;
    }

    /// A valid line with bytes inserted, deleted or replaced, or cut short.
    #[test]
    fn mutated_valid_lines_get_an_op_or_an_op_error(
        op in any_op(),
        edits in prop::collection::vec((0usize..1 << 16, 0u32..4, any_byte()), 1..6)
    ) {
        let mut bytes = op.to_jsonl().into_bytes();
        for (at, kind, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 if at < bytes.len() => bytes[at] = byte,
                _ => bytes.truncate(at),
            }
        }
        check_line(&String::from_utf8_lossy(&bytes))?;
    }
}
