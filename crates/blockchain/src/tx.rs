//! Transactions and receipts.

use duc_codec::{encode_to_vec, Decode, DecodeError, Encode, Reader};
use duc_crypto::{hash_parts, KeyPair, PublicKey, Signature};

use crate::contract::Event;
use crate::types::{Address, Amount, ContractId, TxId};

/// What a transaction does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxKind {
    /// Moves native tokens.
    Transfer {
        /// Recipient address.
        to: Address,
        /// Amount to move.
        amount: Amount,
    },
    /// Calls a contract method.
    Call {
        /// Target contract.
        contract: ContractId,
        /// Method name (dispatched by the contract's `call`).
        method: String,
        /// `duc-codec`-encoded arguments.
        args: Vec<u8>,
    },
}

impl Encode for TxKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TxKind::Transfer { to, amount } => {
                buf.push(0);
                to.encode(buf);
                amount.encode(buf);
            }
            TxKind::Call {
                contract,
                method,
                args,
            } => {
                buf.push(1);
                contract.encode(buf);
                method.encode(buf);
                args.encode(buf);
            }
        }
    }
}

impl Decode for TxKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.read_u8()? {
            0 => TxKind::Transfer {
                to: Address::decode(r)?,
                amount: Amount::decode(r)?,
            },
            1 => TxKind::Call {
                contract: ContractId::decode(r)?,
                method: String::decode(r)?,
                args: Vec::decode(r)?,
            },
            tag => {
                return Err(DecodeError::InvalidTag {
                    tag,
                    type_name: "TxKind",
                })
            }
        })
    }
}

/// An unsigned transaction body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender address (must match the signing key).
    pub from: Address,
    /// Sender's account nonce (replay protection).
    pub nonce: u64,
    /// The operation.
    pub kind: TxKind,
    /// Gas budget.
    pub gas_limit: u64,
}

impl Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.from.encode(buf);
        self.nonce.encode(buf);
        self.kind.encode(buf);
        self.gas_limit.encode(buf);
    }
}

impl Decode for Transaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Transaction {
            from: Address::decode(r)?,
            nonce: u64::decode(r)?,
            kind: TxKind::decode(r)?,
            gas_limit: u64::decode(r)?,
        })
    }
}

impl Transaction {
    /// The canonical bytes that are signed.
    pub fn signing_bytes(&self) -> Vec<u8> {
        encode_to_vec(self)
    }

    /// Signs the transaction with `key` (whose address must equal `from`).
    ///
    /// # Panics
    /// Panics when the key does not own the `from` address — a programming
    /// error at the call site, never data-dependent.
    pub fn sign(self, key: &KeyPair) -> SignedTransaction {
        assert_eq!(
            Address::from_public_key(&key.public()),
            self.from,
            "signing key does not own the sender address"
        );
        let signature = key.sign(&self.signing_bytes());
        SignedTransaction {
            tx: self,
            public_key: key.public(),
            signature,
        }
    }
}

/// A signed transaction ready for submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTransaction {
    /// The body.
    pub tx: Transaction,
    /// The sender's public key.
    pub public_key: PublicKey,
    /// Schnorr signature over [`Transaction::signing_bytes`].
    pub signature: Signature,
}

impl Encode for SignedTransaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.tx.encode(buf);
        self.public_key.encode(buf);
        self.signature.encode(buf);
    }
}

impl Decode for SignedTransaction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SignedTransaction {
            tx: Transaction::decode(r)?,
            public_key: PublicKey::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// Width of the `public_key` + `signature` suffix of a signed encoding
/// (three fixed-width `u64`s): the encoding less this suffix is exactly
/// [`Transaction::signing_bytes`].
pub(crate) const SIGNATURE_SUFFIX_LEN: usize = 24;

/// The id of the transaction whose full signed encoding is `encoded`.
pub(crate) fn id_of_encoding(encoded: &[u8]) -> TxId {
    TxId(hash_parts(&[b"duc/tx", encoded]))
}

impl SignedTransaction {
    /// The transaction id (hash of the full signed encoding).
    pub fn id(&self) -> TxId {
        id_of_encoding(&encode_to_vec(self))
    }

    /// Verifies signature and sender-address consistency.
    pub fn verify(&self) -> bool {
        self.verify_over(&self.tx.signing_bytes())
    }

    /// [`SignedTransaction::verify`] for a caller that already holds the
    /// body's [`Transaction::signing_bytes`].
    pub(crate) fn verify_over(&self, signing_bytes: &[u8]) -> bool {
        Address::from_public_key(&self.public_key) == self.tx.from
            && self
                .public_key
                .verify(signing_bytes, &self.signature)
                .is_ok()
    }

    /// The encoded size in bytes (for payload gas and network modelling),
    /// counted from the field lengths: nothing is encoded to measure it.
    pub fn encoded_size(&self) -> usize {
        // Tag, then an address and a `u128`, or three length-prefixed
        // strings.
        let kind = 1 + match &self.tx.kind {
            TxKind::Transfer { .. } => 32 + 16,
            TxKind::Call {
                contract,
                method,
                args,
            } => 3 * 4 + contract.0.len() + method.len() + args.len(),
        };
        // from, nonce, kind, gas_limit; then the public key and signature.
        32 + 8 + kind + 8 + SIGNATURE_SUFFIX_LEN
    }
}

/// Execution outcome recorded on-chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed successfully.
    Ok,
    /// The contract rejected the call (state rolled back, gas charged).
    Reverted(String),
    /// The gas limit was exhausted (state rolled back, all gas charged).
    OutOfGas,
    /// Never executed: a later transaction from the same sender was
    /// included first and consumed the nonce, so this mempool entry was
    /// evicted. Recorded so inclusion polls resolve immediately instead of
    /// burning their full retry budget waiting for a receipt that would
    /// never appear.
    Superseded,
}

impl TxStatus {
    /// Whether execution succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, TxStatus::Ok)
    }
}

/// The receipt for one executed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Transaction id.
    pub tx_id: TxId,
    /// Block that included it.
    pub block_height: u64,
    /// Outcome.
    pub status: TxStatus,
    /// Gas consumed.
    pub gas_used: u64,
    /// Events emitted (empty on revert). `Rc`-shared with the chain's
    /// event log — one allocation per event, not one per consumer.
    pub events: Vec<std::rc::Rc<Event>>,
    /// Return value of the contract call (empty for transfers/reverts).
    pub return_data: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::decode_from_slice;
    use proptest::prelude::*;

    fn call_tx(nonce: u64) -> Transaction {
        Transaction {
            from: Address::from_seed(b"alice"),
            nonce,
            kind: TxKind::Call {
                contract: ContractId::new("dex"),
                method: "register_pod".into(),
                args: encode_to_vec(&("https://alice.pod/".to_string(),)),
            },
            gas_limit: 100_000,
        }
    }

    #[test]
    fn sign_and_verify() {
        let key = KeyPair::from_seed(b"alice");
        let signed = call_tx(0).sign(&key);
        assert!(signed.verify());
    }

    #[test]
    fn tampered_body_fails_verification() {
        let key = KeyPair::from_seed(b"alice");
        let mut signed = call_tx(0).sign(&key);
        signed.tx.nonce = 7;
        assert!(!signed.verify());
    }

    #[test]
    fn wrong_key_cannot_claim_address() {
        let mallory = KeyPair::from_seed(b"mallory");
        let tx = call_tx(0); // from = alice's address
        let signature = mallory.sign(&tx.signing_bytes());
        let forged = SignedTransaction {
            tx,
            public_key: mallory.public(),
            signature,
        };
        assert!(!forged.verify(), "address/key mismatch must fail");
    }

    #[test]
    #[should_panic(expected = "does not own")]
    fn signing_with_foreign_key_panics() {
        let mallory = KeyPair::from_seed(b"mallory");
        let _ = call_tx(0).sign(&mallory);
    }

    #[test]
    fn tx_ids_are_unique_per_content() {
        let key = KeyPair::from_seed(b"alice");
        let a = call_tx(0).sign(&key);
        let b = call_tx(1).sign(&key);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.clone().id(), "stable");
    }

    #[test]
    fn codec_roundtrip() {
        let key = KeyPair::from_seed(b"alice");
        let signed = call_tx(3).sign(&key);
        let bytes = encode_to_vec(&signed);
        let back: SignedTransaction = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, signed);
        assert!(back.verify());
        assert_eq!(back.encoded_size(), bytes.len());
    }

    #[test]
    fn signed_encoding_is_the_signing_bytes_plus_a_fixed_suffix() {
        let key = KeyPair::from_seed(b"alice");
        let transfer = Transaction {
            kind: TxKind::Transfer {
                to: Address::from_seed(b"bob"),
                amount: 1,
            },
            ..call_tx(9)
        };
        for tx in [call_tx(0), transfer] {
            let signed = tx.sign(&key);
            let bytes = encode_to_vec(&signed);
            let (body, _) = bytes.split_at(bytes.len() - SIGNATURE_SUFFIX_LEN);
            assert_eq!(body, signed.tx.signing_bytes());
            assert!(signed.verify_over(body));
            assert_eq!(id_of_encoding(&bytes), signed.id());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `encoded_size` counts exactly the bytes `encode_to_vec` writes,
        /// for transfers and for calls of any name and argument length.
        #[test]
        fn encoded_size_is_the_encoding_length(
            call in any::<bool>(),
            nonce in any::<u64>(),
            amount in any::<u128>(),
            contract in "[a-z-]{0,24}",
            method in ".{0,16}",
            args in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            let kind = if call {
                TxKind::Call { contract: ContractId::new(contract), method, args }
            } else {
                TxKind::Transfer { to: Address::from_seed(b"bob"), amount }
            };
            let signed = Transaction { kind, ..call_tx(nonce) }.sign(&KeyPair::from_seed(b"alice"));
            prop_assert_eq!(signed.encoded_size(), encode_to_vec(&signed).len());
        }
    }

    #[test]
    fn transfer_kind_roundtrip() {
        let kind = TxKind::Transfer {
            to: Address::from_seed(b"bob"),
            amount: 12_345,
        };
        let back: TxKind = decode_from_slice(&encode_to_vec(&kind)).unwrap();
        assert_eq!(back, kind);
    }

    #[test]
    fn status_helpers() {
        assert!(TxStatus::Ok.is_ok());
        assert!(!TxStatus::Reverted("nope".into()).is_ok());
        assert!(!TxStatus::OutOfGas.is_ok());
        assert!(!TxStatus::Superseded.is_ok());
    }
}
