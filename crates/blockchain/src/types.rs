//! Core ledger identifiers and quantities.

use std::fmt;
use std::sync::Arc;

use duc_codec::{Decode, DecodeError, Encode, Reader};
use duc_crypto::{hash_parts, Digest, PublicKey};

/// An account address: the hash of the account's public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub Digest);

impl Address {
    /// Derives the address of a public key.
    pub fn from_public_key(pk: &PublicKey) -> Address {
        Address(hash_parts(&[b"duc/address", &pk.to_bytes()]))
    }

    /// Derives a deterministic address from a seed (test/workload helper:
    /// the address of the key pair generated from the same seed).
    pub fn from_seed(seed: &[u8]) -> Address {
        Address::from_public_key(&duc_crypto::KeyPair::from_seed(seed).public())
    }

    /// Short printable form.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.0.short())
    }
}

impl Encode for Address {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for Address {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Address(Digest::decode(r)?))
    }
}

/// A token amount (the chain's native unit, used for gas fees and market
/// payments).
pub type Amount = u128;

/// A transaction identifier: the hash of the signed transaction bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub Digest);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

impl Encode for TxId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for TxId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TxId(Digest::decode(r)?))
    }
}

/// Identifies a deployed contract. The text is shared: a clone, such as
/// the one every event of a call carries, allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContractId(Arc<str>);

impl ContractId {
    /// Creates a contract id.
    pub fn new(name: impl Into<String>) -> ContractId {
        ContractId(Arc::from(name.into()))
    }

    /// The identifier text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ContractId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contract:{}", self.0)
    }
}

impl Encode for ContractId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_str().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for ContractId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ContractId::new(String::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn address_is_deterministic_per_key() {
        let a1 = Address::from_seed(b"alice");
        let a2 = Address::from_seed(b"alice");
        let b = Address::from_seed(b"bob");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn address_matches_public_key_derivation() {
        let kp = duc_crypto::KeyPair::from_seed(b"x");
        assert_eq!(
            Address::from_seed(b"x"),
            Address::from_public_key(&kp.public())
        );
    }

    #[test]
    fn display_forms() {
        let a = Address::from_seed(b"a");
        assert!(a.to_string().starts_with("0x"));
        let tx = TxId(duc_crypto::sha256(b"t"));
        assert!(tx.to_string().starts_with("tx:"));
        assert_eq!(ContractId::new("dex").to_string(), "contract:dex");
    }

    #[test]
    fn codec_roundtrips() {
        let a = Address::from_seed(b"a");
        assert_eq!(decode_from_slice::<Address>(&encode_to_vec(&a)).unwrap(), a);
        let t = TxId(duc_crypto::sha256(b"t"));
        assert_eq!(decode_from_slice::<TxId>(&encode_to_vec(&t)).unwrap(), t);
        let c = ContractId::new("dex");
        assert_eq!(
            decode_from_slice::<ContractId>(&encode_to_vec(&c)).unwrap(),
            c
        );
    }
}
