//! Structure-aware fuzzing of the parsers that read untrusted input: both
//! AIGER formats, the classifier text and flow scripts.
//!
//! Each case serializes a well-formed input — a scripted circuit, or a
//! classifier built from a seeded paper-architecture network — and applies a
//! few mutations to its bytes: flip a byte, truncate the file, or replace a
//! header field (a numeric field of a line that starts with a keyword, such
//! as `aag M I L O A` or `layer IN OUT ACT`) with an arbitrary `u32`.  Every
//! mutant must parse to `Ok` or `Err`; a panic fails the case, and an
//! allocation sized by a hostile field would abort the test binary.  What
//! parses must also be usable: a circuit with clean invariants that
//! serializes and parses again, a classifier that decides a row.
//!
//! Flow scripts are token soup: operator aliases, separators, whitespace and
//! arbitrary bytes, joined in any order.  A script must build a flow with
//! one stage per word, or name a word of the script it cannot read; a flow
//! it builds must run on a circuit and keep its function.

use elf_aig::aiger::{from_ascii, from_binary, to_ascii, to_binary};
use elf_aig::{check_equivalence, EquivalenceResult};
use elf_circuits::{script_strategy, scripted_circuit};
use elf_core::{ElfClassifier, ElfOptions, Flow, ParseFlowError};
use elf_nn::{Mlp, Normalizer};
use proptest::prelude::*;

/// One mutation of a serialized input.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `index % len` with a nonzero mask.
    Flip { index: usize, mask: u8 },
    /// Keep the first `len % (len + 1)` bytes.
    Truncate { len: usize },
    /// Replace field `1 + field % (fields - 1)` of header line
    /// `line % headers` with `value`.
    Field {
        line: usize,
        field: usize,
        value: u32,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(index, mask)| Mutation::Flip { index, mask }),
        any::<usize>().prop_map(|len| Mutation::Truncate { len }),
        // Arbitrary values mostly fail the first bound they meet; small ones
        // reach the loops behind it.
        (
            any::<usize>(),
            any::<usize>(),
            prop_oneof![any::<u32>(), 0u32..64]
        )
            .prop_map(|(line, field, value)| Mutation::Field { line, field, value }),
    ]
}

fn mutate(bytes: &mut Vec<u8>, mutation: &Mutation) {
    match *mutation {
        Mutation::Flip { index, mask } => {
            if !bytes.is_empty() {
                let index = index % bytes.len();
                bytes[index] ^= mask;
            }
        }
        Mutation::Truncate { len } => bytes.truncate(len % (bytes.len() + 1)),
        Mutation::Field { line, field, value } => {
            // Byte ranges of the lines that start with a keyword and carry
            // at least one field after it.
            let mut headers = Vec::new();
            let mut start = 0;
            for text in bytes.split(|&b| b == b'\n') {
                let keyword = text.first().is_some_and(u8::is_ascii_alphabetic);
                if keyword && text.contains(&b' ') {
                    headers.push(start..start + text.len());
                }
                start += text.len() + 1;
            }
            if headers.is_empty() {
                return;
            }
            let range = headers[line % headers.len()].clone();
            let mut fields: Vec<Vec<u8>> = bytes[range.clone()]
                .split(|&b| b == b' ')
                .map(<[u8]>::to_vec)
                .collect();
            let index = 1 + field % (fields.len() - 1);
            fields[index] = value.to_string().into_bytes();
            bytes.splice(range, fields.join(&b' '));
        }
    }
}

fn mutant(bytes: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for mutation in mutations {
        mutate(&mut bytes, mutation);
    }
    bytes
}

/// The words a flow script reads: operator aliases.
const ALIASES: [&str; 6] = ["rf", "refactor", "rw", "rewrite", "rs", "resub"];

/// One piece of a flow script: an alias, a separator, whitespace, or a few
/// arbitrary bytes (read lossily as UTF-8).
fn script_token() -> impl Strategy<Value = String> {
    const SEPARATORS: [&str; 7] = [";", ",", " ", "\t", "\n", ";;", " , "];
    prop_oneof![
        (0..ALIASES.len()).prop_map(|i| ALIASES[i].to_string()),
        (0..SEPARATORS.len()).prop_map(|i| SEPARATORS[i].to_string()),
        prop::collection::vec(any::<u8>(), 1..4)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

/// Checks what one parse of `script` returned: a flow with one stage per
/// word, all of them aliases, or an error naming a word of the script that
/// is none.  Returns the flow.
fn check_parse(script: &str, parsed: Result<Flow, ParseFlowError>) -> Option<Flow> {
    let words: Vec<&str> = script
        .split(|c: char| c == ';' || c == ',' || c.is_whitespace())
        .filter(|word| !word.is_empty())
        .collect();
    match parsed {
        Ok(flow) => {
            assert!(
                words.iter().all(|word| ALIASES.contains(word)),
                "{script:?}"
            );
            assert_eq!(flow.len(), words.len(), "{script:?}");
            Some(flow)
        }
        Err(error) => {
            let token = error.token();
            assert!(words.contains(&token), "{token:?} is no word of {script:?}");
            assert!(!ALIASES.contains(&token), "{script:?}");
            None
        }
    }
}

/// Parses `bytes` with both AIGER readers; whatever parses must be a clean
/// graph that serializes and parses again.
fn parse_aiger(bytes: &[u8]) {
    let parsed = [
        from_ascii(&String::from_utf8_lossy(bytes)),
        from_binary(bytes),
    ];
    for aig in parsed.into_iter().flatten() {
        assert!(aig.check_invariants().is_empty());
        assert!(from_ascii(&to_ascii(&aig)).is_ok());
        assert!(from_binary(&to_binary(&aig)).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_aiger_errors_instead_of_panicking(
        script in script_strategy(24),
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let mut aig = scripted_circuit(5, &script);
        aig.set_name("fuzz");
        for bytes in [to_ascii(&aig).into_bytes(), to_binary(&aig)] {
            parse_aiger(&mutant(&bytes, &mutations));
        }
    }

    #[test]
    fn mutated_classifier_text_errors_instead_of_panicking(
        seed in any::<u64>(),
        mutations in prop::collection::vec(mutation(), 1..4),
    ) {
        let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.5; 6]);
        let classifier =
            ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(seed), 0.5);
        let text = mutant(classifier.to_text().as_bytes(), &mutations);
        if let Ok(parsed) = ElfClassifier::from_text(&String::from_utf8_lossy(&text)) {
            let decisions = parsed.classify(&[[1.0; 6]]);
            prop_assert_eq!(decisions.len(), 1);
        }
    }

    #[test]
    fn mutated_flow_scripts_error_or_run(
        tokens in prop::collection::vec(script_token(), 0..10),
        circuit in script_strategy(16),
        seed in any::<u64>(),
    ) {
        let script = tokens.concat();
        let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.5; 6]);
        let classifier =
            ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(seed), 0.5);
        let flows = [
            check_parse(&script, Flow::from_script(&script)),
            check_parse(
                &script,
                Flow::pruned_from_script(&script, &classifier, ElfOptions::default()),
            ),
        ];
        for flow in flows.into_iter().flatten() {
            let mut aig = scripted_circuit(5, &circuit);
            let golden = aig.clone();
            let stats = flow.run(&mut aig);
            prop_assert_eq!(stats.stages.len(), flow.len());
            prop_assert!(aig.check_invariants().is_empty(), "{:?}", aig.check_invariants());
            prop_assert_eq!(
                check_equivalence(&golden, &aig, 16, seed),
                EquivalenceResult::Equivalent
            );
        }
    }
}
