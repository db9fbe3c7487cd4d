//! The DE App's storage layout: how every storage key is spelled.
//!
//! All keys are ASCII-prefixed; composites separate their two parts with
//! one `\0`. Rows are the compact encodings of [`crate::rows`] — identity
//! strings live in the key, policies in the content-addressed `pol/` table:
//!
//! ```text
//! cfg/{name}                 → market configuration (`fee`, `validity`,
//!                              `treasury`; set once by `init`)
//! pol/{digest}               → PolicyEnvelope (content-addressed, shared)
//! pod/{owner_webid}          → PodRow
//! res/{resource}             → ResourceRow
//! copy/{resource}\0{device}  → CopyRow
//! roundctr/{resource}        → u64, the last round opened
//! round/{resource}\0{round}  → RoundRow (round: 20 decimal digits)
//! round/{resource}\0{round}# → u32, answers recorded so far
//! round/{resource}\0{round}\0{device}
//!                            → AnswerRow, once the device answered
//! sub/{webid}                → SubRow
//! cert/{digest}              → () existence marker
//! ```
//!
//! A round's rows share its header key as their prefix; the round number's
//! fixed width keeps `#` and `\0` after it from naming another round, and
//! `reject_separator` keeps `\0` out of device names, so
//! `round/{resource}\0{round}\0` scans exactly the round's answers.
//!
//! [`crate::dist_exchange`] builds its keys here and [`crate::access`]
//! hashes the same prefixes, so the table above is the only place the
//! layout is written down. The bytes are consensus: they feed the state
//! commitment and the gas charged per key byte.

use duc_blockchain::ContractError;
use duc_crypto::Digest;

pub(crate) const CFG: &[u8] = b"cfg/";
pub(crate) const POL: &[u8] = b"pol/";
pub(crate) const POD: &[u8] = b"pod/";
pub(crate) const RES: &[u8] = b"res/";
pub(crate) const COPY: &[u8] = b"copy/";
pub(crate) const ROUND_COUNTER: &[u8] = b"roundctr/";
pub(crate) const ROUND: &[u8] = b"round/";
pub(crate) const SUB: &[u8] = b"sub/";
pub(crate) const CERT: &[u8] = b"cert/";

fn key(prefix: &[u8], identity: &[u8]) -> Vec<u8> {
    [prefix, identity].concat()
}

fn composite(prefix: &[u8], first: &str, second: &[u8]) -> Vec<u8> {
    [prefix, first.as_bytes(), b"\0", second].concat()
}

pub(crate) fn cfg(name: &str) -> Vec<u8> {
    key(CFG, name.as_bytes())
}

pub(crate) fn pol(digest: &Digest) -> Vec<u8> {
    key(POL, digest.as_bytes())
}

pub(crate) fn pod(owner_webid: &str) -> Vec<u8> {
    key(POD, owner_webid.as_bytes())
}

pub(crate) fn res(resource: &str) -> Vec<u8> {
    key(RES, resource.as_bytes())
}

/// `copy/{resource}\0` — the per-resource scan prefix.
pub(crate) fn copy_prefix(resource: &str) -> Vec<u8> {
    composite(COPY, resource, b"")
}

pub(crate) fn copy(resource: &str, device: &str) -> Vec<u8> {
    composite(COPY, resource, device.as_bytes())
}

pub(crate) fn round_counter(resource: &str) -> Vec<u8> {
    key(ROUND_COUNTER, resource.as_bytes())
}

pub(crate) fn round(resource: &str, round: u64) -> Vec<u8> {
    composite(ROUND, resource, format!("{round:020}").as_bytes())
}

/// `round/{resource}\0{round}#` — the round's answer counter.
pub(crate) fn round_answered(resource: &str, round: u64) -> Vec<u8> {
    [self::round(resource, round), b"#".to_vec()].concat()
}

/// `round/{resource}\0{round}\0` — the scan prefix of the round's answers.
pub(crate) fn answer_prefix(resource: &str, round: u64) -> Vec<u8> {
    [self::round(resource, round), b"\0".to_vec()].concat()
}

pub(crate) fn answer(resource: &str, round: u64, device: &str) -> Vec<u8> {
    [answer_prefix(resource, round), device.as_bytes().to_vec()].concat()
}

pub(crate) fn sub(webid: &str) -> Vec<u8> {
    key(SUB, webid.as_bytes())
}

pub(crate) fn cert(certificate: &Digest) -> Vec<u8> {
    key(CERT, certificate.as_bytes())
}

/// Reverts when `identity` holds the composite separator. A `\0` inside a
/// resource IRI or device name would let `copy/{a\0b}\0{d}` read back as
/// device `b\0d` of resource `a`, so neither may be registered with one.
pub(crate) fn reject_separator(what: &str, identity: &str) -> Result<(), ContractError> {
    if identity.contains('\0') {
        return Err(ContractError::Reverted(format!(
            "{what} must not contain a NUL byte"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ASCII, non-ASCII, and longer than 55 bytes (where the state
    /// directory used to switch from inline to boxed keys).
    const IDENTITIES: [&str; 3] = [
        "https://alice.id/me",
        "https://żółć.example/档案#我",
        "https://pod.example/a/rather/long/container/path/that/passes/55/bytes.ttl",
    ];

    #[test]
    fn builders_spell_the_documented_table() {
        assert!(IDENTITIES[2].len() > 55);
        for id in IDENTITIES {
            let b = id.as_bytes();
            assert_eq!(pod(id), [b"pod/", b].concat());
            assert_eq!(res(id), [b"res/", b].concat());
            assert_eq!(sub(id), [b"sub/", b].concat());
            assert_eq!(round_counter(id), [b"roundctr/", b].concat());
            assert_eq!(copy_prefix(id), [b"copy/", b, b"\0"].concat());
            assert_eq!(copy(id, "dév-1"), [b"copy/", b, b"\0d\xc3\xa9v-1"].concat());
            assert!(copy(id, "dév-1").starts_with(&copy_prefix(id)));
            for (n, digits) in [
                (0, &b"00000000000000000000"[..]),
                (7, b"00000000000000000007"),
                (u64::MAX, b"18446744073709551615"),
            ] {
                let head = [b"round/", b, b"\0", digits].concat();
                assert_eq!(round(id, n), head);
                assert_eq!(round_answered(id, n), [&head[..], b"#"].concat());
                assert_eq!(answer_prefix(id, n), [&head[..], b"\0"].concat());
                assert_eq!(
                    answer(id, n, "dév-1"),
                    [&head[..], b"\0d\xc3\xa9v-1"].concat()
                );
            }
        }
        assert_eq!(cfg("fee"), b"cfg/fee");
        assert_eq!(cfg("validity"), b"cfg/validity");
        assert_eq!(cfg("treasury"), b"cfg/treasury");
        let d = duc_crypto::sha256(b"layout");
        assert_eq!(pol(&d), [&b"pol/"[..], d.as_bytes()].concat());
        assert_eq!(cert(&d), [&b"cert/"[..], d.as_bytes()].concat());
    }

    #[test]
    fn separator_is_rejected_anywhere_in_an_identity() {
        assert!(reject_separator("resource", "urn:r").is_ok());
        assert!(reject_separator("resource", "").is_ok());
        for bad in ["\0", "urn:r\0x", "\0urn:r", "urn:r\0"] {
            let err = reject_separator("resource", bad).unwrap_err();
            assert!(matches!(err, ContractError::Reverted(m) if m.contains("resource")));
        }
    }
}
