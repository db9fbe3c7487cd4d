//! Binary Merkle trees with inclusion proofs.
//!
//! Blocks commit to their transaction set through a Merkle root; the
//! monitoring contract commits to evidence batches the same way, letting a
//! pod manager verify one piece of evidence without downloading the batch.

use crate::sha256::{Digest, Sha256};

fn hash_leaf(data: &[u8]) -> Digest {
    // Domain separation between leaves and interior nodes prevents
    // second-preimage tree-splicing attacks.
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// A step in an inclusion proof: the sibling digest and its side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProofStep {
    /// Sibling is on the left: parent = H(sibling ‖ current).
    Left(Digest),
    /// Sibling is on the right: parent = H(current ‖ sibling).
    Right(Digest),
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MerkleProof {
    steps: Vec<ProofStep>,
}

impl MerkleProof {
    /// Recomputes the root implied by `leaf_data` under this proof.
    fn compute_root(&self, leaf_data: &[u8]) -> Digest {
        let mut acc = hash_leaf(leaf_data);
        for step in &self.steps {
            acc = match step {
                ProofStep::Left(sib) => hash_node(sib, &acc),
                ProofStep::Right(sib) => hash_node(&acc, sib),
            };
        }
        acc
    }

    /// Verifies that `leaf_data` is included under `root`.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        self.compute_root(leaf_data) == *root
    }
}

/// An immutable Merkle tree built over a list of leaf byte-strings.
///
/// # Example
/// ```
/// use duc_crypto::MerkleTree;
/// let tree = MerkleTree::from_leaves(&[b"tx0".to_vec(), b"tx1".to_vec(), b"tx2".to_vec()]);
/// let proof = tree.prove(1).expect("leaf 1 exists");
/// assert!(proof.verify(b"tx1", &tree.root()));
/// assert!(!proof.verify(b"tx9", &tree.root()));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf digests, last level = [root].
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaves.
    ///
    /// An empty leaf set yields the conventional "empty root"
    /// (`H(0x00)`-leaf of the empty string), so every tree has a root.
    ///
    /// An odd node at the end of a level is promoted by pairing it with
    /// itself. So a root commits to its leaf list only up to repeating the
    /// last leaf at an odd level: `[a, b, c]` and `[a, b, c, c]` have the
    /// same root. A caller that needs the exact list must reject repeated
    /// leaves itself, as `Block::validate` does by `(sender, nonce)`.
    pub fn from_leaves(leaves: &[Vec<u8>]) -> MerkleTree {
        let leaf_digests: Vec<Digest> = if leaves.is_empty() {
            vec![hash_leaf(b"")]
        } else {
            leaves.iter().map(|l| hash_leaf(l)).collect()
        };
        let mut levels = vec![leaf_digests];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let parent = if pair.len() == 2 {
                    hash_node(&pair[0], &pair[1])
                } else {
                    // Odd node is promoted by pairing with itself.
                    hash_node(&pair[0], &pair[0])
                };
                next.push(parent);
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Produces an inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut steps = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = if sibling_idx < level.len() {
                level[sibling_idx]
            } else {
                level[idx] // odd node paired with itself
            };
            steps.push(if idx.is_multiple_of(2) {
                ProofStep::Right(sibling)
            } else {
                ProofStep::Left(sibling)
            });
            idx /= 2;
        }
        Some(MerkleProof { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&leaves(1));
        assert_eq!(tree.root(), hash_leaf(b"leaf-0"));
        let proof = tree.prove(0).unwrap();
        assert!(proof.steps.is_empty());
        assert!(proof.verify(b"leaf-0", &tree.root()));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let ls = leaves(n);
            let tree = MerkleTree::from_leaves(&ls);
            for (i, leaf) in ls.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(proof.verify(leaf, &tree.root()), "n={n}, i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let tree = MerkleTree::from_leaves(&leaves(8));
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(b"leaf-4", &tree.root()));
        assert!(!proof.verify(b"", &tree.root()));
    }

    #[test]
    fn proof_fails_under_wrong_root() {
        let t1 = MerkleTree::from_leaves(&leaves(4));
        let t2 = MerkleTree::from_leaves(&leaves(5));
        let proof = t1.prove(0).unwrap();
        assert!(!proof.verify(b"leaf-0", &t2.root()));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::from_leaves(&leaves(3));
        assert!(tree.prove(3).is_none());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::from_leaves(&leaves(6)).root();
        for i in 0..6 {
            let mut ls = leaves(6);
            ls[i].push(b'!');
            assert_ne!(MerkleTree::from_leaves(&ls).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn root_depends_on_order() {
        let mut ls = leaves(4);
        let orig = MerkleTree::from_leaves(&ls).root();
        ls.swap(0, 1);
        assert_ne!(MerkleTree::from_leaves(&ls).root(), orig);
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let t1 = MerkleTree::from_leaves(&[]);
        let t2 = MerkleTree::from_leaves(&[]);
        assert_eq!(t1.root(), t2.root());
        assert_ne!(t1.root(), Digest::ZERO);
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A single leaf equal to `0x01 || a || b` must not produce the same
        // root as the two-leaf tree of (a, b).
        let two = MerkleTree::from_leaves(&[b"a".to_vec(), b"b".to_vec()]);
        let la = hash_leaf(b"a");
        let lb = hash_leaf(b"b");
        let mut forged = vec![0x01u8];
        forged.extend_from_slice(la.as_bytes());
        forged.extend_from_slice(lb.as_bytes());
        let one = MerkleTree::from_leaves(&[forged]);
        assert_ne!(one.root(), two.root());
    }
}
