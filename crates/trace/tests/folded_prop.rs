//! Property tests for the folded-stack text format: hostile frame
//! names are sanitized at the boundary, the encoder never emits a `;`
//! or newline inside a frame, and encode → parse round-trips exactly.

use proptest::prelude::*;
use proptest::strategy::Map;
use std::time::Duration;
use whart_trace::prof::{parse_folded, sanitize_frame, Profile, ThreadProfile, DEFAULT_HZ};

/// Alphabet biased toward hostile content: the folded separators (`;`,
/// space, newline), other whitespace, control characters and multi-byte
/// unicode, alongside ordinary label characters.
const ALPHABET: &[char] = &[
    'a', 'b', 'Z', '0', '.', '-', '_', ':', ';', ' ', '\t', '\n', '\r', '\u{7}', 'é', '→',
];

type NameStrategy =
    Map<proptest::collection::VecStrategy<std::ops::Range<usize>>, fn(Vec<usize>) -> String>;

/// Arbitrary frame labels over [`ALPHABET`], length 0..8 (empty names
/// included — sanitization must never emit an empty frame).
fn hostile_name() -> NameStrategy {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..8)
        .prop_map(|indices| indices.into_iter().map(|i| ALPHABET[i]).collect())
}

fn stacks() -> impl Strategy<Value = Vec<(Vec<String>, u64)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(hostile_name(), 1..5),
            1u64..10_000,
        ),
        1..8,
    )
}

proptest! {
    #[test]
    fn folded_encode_parse_round_trips(per_thread in proptest::collection::vec(stacks(), 1..4)) {
        let threads: Vec<ThreadProfile> = per_thread
            .iter()
            .enumerate()
            .map(|(i, stacks)| ThreadProfile {
                name: sanitize_frame(&format!("t{i}")),
                samples: stacks.iter().map(|(_, c)| c).sum(),
                stacks: stacks
                    .iter()
                    .map(|(frames, count)| {
                        (frames.iter().map(|f| sanitize_frame(f)).collect(), *count)
                    })
                    .collect(),
            })
            .collect();
        let profile = Profile {
            hz: DEFAULT_HZ,
            duration: Duration::from_millis(1),
            threads: threads.clone(),
        };

        let folded = profile.to_folded();

        // No frame ever smuggles a separator into the text format: every
        // non-empty line is `frames... count` with non-empty frames.
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("line has a count");
            prop_assert!(count.parse::<u64>().is_ok(), "bad count in {line:?}");
            prop_assert!(!stack.contains(' '), "space inside stack: {line:?}");
            prop_assert!(
                stack.split(';').all(|f| !f.is_empty()),
                "empty frame in {line:?}"
            );
        }
        prop_assert!(!folded.contains("\n\n"));

        // Round-trip: parsed records match the synthesized stacks with
        // the thread name prepended as the root frame, in emission order.
        let parsed = parse_folded(&folded).expect("encoder output parses");
        let expected: Vec<(Vec<String>, u64)> = threads
            .iter()
            .flat_map(|t| {
                t.stacks.iter().map(|(frames, count)| {
                    let mut full = vec![t.name.clone()];
                    full.extend(frames.iter().cloned());
                    (full, *count)
                })
            })
            .collect();
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn sanitized_names_carry_no_separators(name in hostile_name()) {
        let clean = sanitize_frame(&name);
        prop_assert!(!clean.is_empty());
        prop_assert!(!clean.contains(';'));
        prop_assert!(!clean.contains('\n'));
        prop_assert!(!clean.contains(char::is_whitespace));
    }
}
