//! The shard wire protocol: one envelope codec for every partial
//! result that crosses a process boundary or a restart.
//!
//! Three kinds of document travel: a fleet [`crate::ShardState`], a
//! sweep shard state and a sweep checkpoint. Each is one envelope,
//!
//! ```json
//! { "<kind tag>": "<version>", "fingerprint": "<u64>",
//!   "shard": "<k>", "num_shards": "<n>", "body": { ... } }
//! ```
//!
//! where `shard`/`num_shards` appear only for kinds cut into shards
//! and the body is the kind's own business. The tag names the kind and
//! carries its wire version; the fingerprint names the document the
//! state was computed from, so a merge or a resume refuses a state of
//! another document instead of folding it into a wrong report.
//! [`decode`] runs every envelope check in one place: the tag, the
//! version, unknown fields and the shard coordinate.
//!
//! Numbers are exact. The vendored JSON value stores numbers as `f64`,
//! exact only up to 2^53, and counters and fixed-point sums exceed
//! that, so every integer is written as a decimal string ([`int`]) and
//! every `f64` as the decimal string of its IEEE-754 bit pattern
//! ([`float`]), which round-trips every value, infinities and NaN
//! payloads included. [`parse_int`] and [`parse_float`] read them
//! back.

use serde::de::Cursor;
use serde::json::JsonValue;

use xrbench_workload::spec::{parse_json, SpecError};

/// One kind of envelope: its tag key and the wire version this build
/// speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// The top-level key naming the kind; its value is the version.
    pub tag: &'static str,
    /// The only version this build reads and writes.
    pub version: u64,
    /// Whether envelopes of this kind carry a shard coordinate.
    pub sharded: bool,
}

/// The header of a decoded envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Fingerprint of the document the body was computed from.
    pub fingerprint: u64,
    /// `(shard, num_shards)` for sharded kinds, with
    /// `shard < num_shards`; `None` otherwise.
    pub shard: Option<(u32, u32)>,
}

/// An integer as an exact decimal string.
pub fn int(value: impl ToString) -> JsonValue {
    JsonValue::Str(value.to_string())
}

/// An `f64` as the decimal string of its bit pattern.
pub fn float(value: f64) -> JsonValue {
    int(value.to_bits())
}

/// An object with the given fields, in order.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reads an integer written by [`int`].
///
/// # Errors
///
/// Returns a [`SpecError`] naming the cursor's path when the value is
/// not a string holding a decimal integer in `T`'s range.
pub fn parse_int<T: std::str::FromStr>(cursor: &Cursor<'_>) -> Result<T, SpecError> {
    let text = cursor.as_str()?;
    text.parse().map_err(|_| SpecError::Invalid {
        path: cursor.path().to_string(),
        message: format!("not a decimal integer in range: `{text}`"),
    })
}

/// Reads an `f64` written by [`float`].
///
/// # Errors
///
/// As [`parse_int`] for the bit pattern.
pub fn parse_float(cursor: &Cursor<'_>) -> Result<f64, SpecError> {
    parse_int(cursor).map(f64::from_bits)
}

/// A stable 64-bit FNV-1a hash: the fingerprint of a document's
/// canonical text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes one envelope as a single line of compact JSON.
///
/// # Panics
///
/// Panics if `header.shard` is present for an unsharded kind or absent
/// for a sharded one.
pub fn encode(kind: &Kind, header: &Header, body: JsonValue) -> String {
    assert_eq!(
        header.shard.is_some(),
        kind.sharded,
        "`{}` envelopes carry a shard coordinate exactly when the kind is sharded",
        kind.tag
    );
    let mut fields = vec![
        (kind.tag, int(kind.version)),
        ("fingerprint", int(header.fingerprint)),
    ];
    if let Some((shard, num_shards)) = header.shard {
        fields.push(("shard", int(shard)));
        fields.push(("num_shards", int(num_shards)));
    }
    fields.push(("body", body));
    serde_json::to_string(&obj(fields)).expect("an envelope serializes")
}

/// Parses an envelope of `kind` and decodes its body with `body`.
///
/// # Errors
///
/// Returns a [`SpecError`] for malformed JSON, an envelope of another
/// kind (the message names the expected tag), another version (the
/// message names both), unknown fields, a shard coordinate out of
/// range, or whatever `body` refuses.
pub fn decode<T>(
    kind: &Kind,
    text: &str,
    body: impl FnOnce(&Cursor<'_>) -> Result<T, SpecError>,
) -> Result<(Header, T), SpecError> {
    let value = parse_json(text)?;
    let root = Cursor::root(&value);
    let invalid = |message: String| SpecError::Invalid {
        path: root.path().to_string(),
        message,
    };
    let Some(tag) = root.opt_field(kind.tag)? else {
        return Err(invalid(format!("expected an `{}` envelope", kind.tag)));
    };
    // The version comes before the layout: an envelope of another
    // version may have other fields.
    let version: u64 = parse_int(&tag)?;
    if version != kind.version {
        return Err(invalid(format!(
            "unsupported `{}` version {version} (this build speaks version {})",
            kind.tag, kind.version
        )));
    }
    let fields: &[&str] = if kind.sharded {
        &[kind.tag, "fingerprint", "shard", "num_shards", "body"]
    } else {
        &[kind.tag, "fingerprint", "body"]
    };
    root.deny_unknown_fields(fields)?;
    let shard = if kind.sharded {
        let shard: u32 = parse_int(&root.field("shard")?)?;
        let num_shards: u32 = parse_int(&root.field("num_shards")?)?;
        if shard >= num_shards {
            return Err(invalid(format!(
                "shard coordinate {shard}/{num_shards} out of range"
            )));
        }
        Some((shard, num_shards))
    } else {
        None
    };
    let header = Header {
        fingerprint: parse_int(&root.field("fingerprint")?)?,
        shard,
    };
    Ok((header, body(&root.field("body")?)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARDED: Kind = Kind {
        tag: "xrbench_test_state",
        version: 4,
        sharded: true,
    };
    const PLAIN: Kind = Kind {
        tag: "xrbench_test_checkpoint",
        version: 2,
        sharded: false,
    };

    fn count(body: &Cursor<'_>) -> Result<u64, SpecError> {
        body.deny_unknown_fields(&["n"])?;
        parse_int(&body.field("n")?)
    }

    #[test]
    fn envelopes_round_trip_exactly() {
        let header = Header {
            fingerprint: u64::MAX,
            shard: Some((2, 3)),
        };
        let text = encode(&SHARDED, &header, obj(vec![("n", int(u64::MAX - 1))]));
        assert_eq!(
            text,
            "{\"xrbench_test_state\":\"4\",\"fingerprint\":\"18446744073709551615\",\
             \"shard\":\"2\",\"num_shards\":\"3\",\"body\":{\"n\":\"18446744073709551614\"}}"
        );
        assert_eq!(
            decode(&SHARDED, &text, count).unwrap(),
            (header, u64::MAX - 1)
        );
        let header = Header {
            fingerprint: 7,
            shard: None,
        };
        let text = encode(&PLAIN, &header, obj(vec![("n", int(0))]));
        assert_eq!(decode(&PLAIN, &text, count).unwrap(), (header, 0));
    }

    #[test]
    fn floats_round_trip_through_their_bits() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let value = float(v);
            let back = parse_float(&Cursor::root(&value)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn decoder_refuses_other_kinds_versions_and_coordinates() {
        let header = Header {
            fingerprint: 1,
            shard: Some((0, 2)),
        };
        let text = encode(&SHARDED, &header, obj(vec![("n", int(5))]));
        let err = decode(&PLAIN, &text, count).unwrap_err().to_string();
        assert!(
            err.contains("expected an `xrbench_test_checkpoint` envelope"),
            "{err}"
        );
        let old = Kind {
            version: 3,
            ..SHARDED
        };
        let err = decode(&old, &text, count).unwrap_err().to_string();
        assert!(
            err.contains("version 4") && err.contains("version 3"),
            "{err}"
        );
        for (bad, needle) in [
            (
                text.replace("\"shard\":\"0\"", "\"shard\":\"2\""),
                "out of range",
            ),
            (text.replace("\"n\"", "\"m\""), "unknown field `m`"),
            (
                text.replace("\"body\"", "\"extra\""),
                "unknown field `extra`",
            ),
            (text.replace("\"1\"", "\"-1\""), "not a decimal integer"),
            (text.replace("\"num_shards\":\"2\",", ""), "num_shards"),
        ] {
            let err = decode(&SHARDED, &bad, count).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
