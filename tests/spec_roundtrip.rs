//! Property tests for the `DetectorSpec` text codec.
//!
//! The workspace has no serialization framework: specs persist through
//! their canonical text form (`Display`/`FromStr`). These properties
//! check the codec is lossless for *arbitrary* window parameters, not
//! just the paper's configurations.

use proptest::prelude::*;
use twofd::prelude::*;

fn arb_spec() -> impl Strategy<Value = DetectorSpec> {
    (
        0usize..6, // variant selector (vendored proptest has no prop_oneof)
        1usize..100_000,
        1usize..100_000,
        proptest::collection::vec(1usize..100_000, 1..8),
    )
        .prop_map(|(variant, window, extra, windows)| match variant {
            0 => DetectorSpec::Chen { window },
            1 => DetectorSpec::Bertier { window },
            2 => DetectorSpec::Phi { window },
            3 => DetectorSpec::Ed { window },
            4 => DetectorSpec::TwoWindow {
                n1: window,
                n2: window + extra,
            },
            _ => DetectorSpec::MultiWindow { windows },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `to_string` then `parse` is the identity on every variant.
    #[test]
    fn text_codec_round_trips(spec in arb_spec()) {
        let text = spec.to_string();
        prop_assert_eq!(text.parse::<DetectorSpec>().unwrap(), spec);
    }

    /// The canonical form is stable: re-encoding a parsed spec yields
    /// the same string.
    #[test]
    fn canonical_form_is_stable(spec in arb_spec()) {
        let text = spec.to_string();
        let reparsed: DetectorSpec = text.parse().unwrap();
        prop_assert_eq!(reparsed.to_string(), text);
    }
}
