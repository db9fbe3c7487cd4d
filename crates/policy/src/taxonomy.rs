//! Purpose hierarchy.
//!
//! The motivating scenario changes Bob's allowed purpose from "medical" to
//! "academic pursuits" and expects Alice — using a medical-research
//! application *for a university hospital* — to keep her grant. That only
//! works if purposes are hierarchical: `medical-research` is both medical
//! and academic. [`PurposeTaxonomy`] is a DAG of purpose → parents edges
//! with a `satisfies` relation (reachability).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

use crate::model::Purpose;

/// A purpose DAG with `is-a` edges toward broader purposes.
#[derive(Debug, Clone, Default)]
pub struct PurposeTaxonomy {
    parents: HashMap<Purpose, Vec<Purpose>>,
}

impl PurposeTaxonomy {
    /// An empty taxonomy (only exact matches and `any` satisfy).
    pub fn empty() -> Self {
        PurposeTaxonomy::default()
    }

    /// The default taxonomy used across the workspace:
    ///
    /// ```text
    ///                      any
    ///          ┌────────────┼────────────┐
    ///      research     commercial    personal
    ///     ┌────┴─────────┐    │
    /// medical-res.  academic-res. marketing
    ///     └──── university-hospital-research (both medical & academic)
    /// ```
    pub fn standard() -> Self {
        let mut t = PurposeTaxonomy::empty();
        t.add("research", &["any"]);
        t.add("commercial", &["any"]);
        t.add("personal", &["any"]);
        t.add("medical", &["research"]);
        t.add("medical-research", &["medical", "research"]);
        t.add("academic-research", &["research", "academic"]);
        t.add("academic", &["any"]);
        t.add("marketing", &["commercial"]);
        t.add("web-analytics", &["commercial", "research"]);
        t.add(
            "university-hospital-research",
            &["medical-research", "academic-research"],
        );
        t
    }

    /// The process's one [`PurposeTaxonomy::standard`] hierarchy, built on
    /// first use. The hierarchy is immutable and only ever read (policy
    /// compilation closes over it), so every trusted application compiles
    /// against this instance rather than a copy of its own.
    pub fn shared_standard() -> &'static PurposeTaxonomy {
        static STANDARD: OnceLock<PurposeTaxonomy> = OnceLock::new();
        STANDARD.get_or_init(PurposeTaxonomy::standard)
    }

    /// Declares `child` to be a kind of each parent.
    pub fn add(&mut self, child: &str, parents: &[&str]) {
        self.parents
            .entry(Purpose::new(child))
            .or_default()
            .extend(parents.iter().map(|p| Purpose::new(*p)));
    }

    /// Whether a request declaring `declared` satisfies a policy allowing
    /// `allowed`: true when equal, when `allowed` is `any`, or when
    /// `allowed` is reachable from `declared` by `is-a` edges.
    pub fn satisfies(&self, declared: &Purpose, allowed: &Purpose) -> bool {
        if declared == allowed || allowed == &Purpose::any() {
            return true;
        }
        // BFS up the DAG from `declared`.
        let mut seen: HashSet<&Purpose> = HashSet::new();
        let mut queue: VecDeque<&Purpose> = VecDeque::new();
        queue.push_back(declared);
        while let Some(current) = queue.pop_front() {
            if !seen.insert(current) {
                continue;
            }
            if let Some(parents) = self.parents.get(current) {
                for parent in parents {
                    if parent == allowed {
                        return true;
                    }
                    queue.push_back(parent);
                }
            }
        }
        false
    }

    /// Whether `declared` satisfies *any* of the allowed purposes.
    pub(crate) fn satisfies_any(&self, declared: &Purpose, allowed: &[Purpose]) -> bool {
        allowed.iter().any(|a| self.satisfies(declared, a))
    }

    /// Every purpose the taxonomy mentions — children and parents — in
    /// deterministic order. Policy compilation iterates this to bake the
    /// reachability closure into a lookup table
    /// ([`crate::compile::PolicyProgram`]).
    pub fn purposes(&self) -> std::collections::BTreeSet<Purpose> {
        let mut all: std::collections::BTreeSet<Purpose> = self.parents.keys().cloned().collect();
        for parents in self.parents.values() {
            all.extend(parents.iter().cloned());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Purpose {
        Purpose::new(s)
    }

    #[test]
    fn exact_match_always_satisfies() {
        let t = PurposeTaxonomy::empty();
        assert!(t.satisfies(&p("x"), &p("x")));
        assert!(!t.satisfies(&p("x"), &p("y")));
    }

    #[test]
    fn any_is_wildcard() {
        let t = PurposeTaxonomy::empty();
        assert!(t.satisfies(&p("whatever"), &Purpose::any()));
    }

    #[test]
    fn child_satisfies_ancestor() {
        let t = PurposeTaxonomy::standard();
        assert!(t.satisfies(&p("medical-research"), &p("medical")));
        assert!(t.satisfies(&p("medical-research"), &p("research")));
        assert!(t.satisfies(&p("medical-research"), &Purpose::any()));
    }

    #[test]
    fn ancestor_does_not_satisfy_child() {
        let t = PurposeTaxonomy::standard();
        assert!(!t.satisfies(&p("research"), &p("medical-research")));
        assert!(!t.satisfies(&p("medical"), &p("medical-research")));
    }

    #[test]
    fn siblings_do_not_satisfy() {
        let t = PurposeTaxonomy::standard();
        assert!(!t.satisfies(&p("marketing"), &p("research")));
        assert!(!t.satisfies(&p("medical-research"), &p("commercial")));
    }

    #[test]
    fn diamond_membership_the_paper_scenario() {
        // Bob switches his policy from medical to academic purposes; Alice's
        // university-hospital research satisfies both.
        let t = PurposeTaxonomy::standard();
        let alice = p("university-hospital-research");
        assert!(t.satisfies(&alice, &p("medical")));
        assert!(t.satisfies(&alice, &p("academic")));
        assert!(t.satisfies(&alice, &p("research")));
        // Plain medical research is NOT academic, so it would lose access.
        assert!(!t.satisfies(&p("medical-research"), &p("academic")));
    }

    #[test]
    fn satisfies_any_over_lists() {
        let t = PurposeTaxonomy::standard();
        assert!(t.satisfies_any(&p("marketing"), &[p("research"), p("commercial")]));
        assert!(!t.satisfies_any(&p("marketing"), &[p("research"), p("personal")]));
        assert!(!t.satisfies_any(&p("marketing"), &[]));
    }

    #[test]
    fn ancestors_are_transitive() {
        let t = PurposeTaxonomy::standard();
        let child = p("university-hospital-research");
        for ancestor in [
            "medical-research",
            "academic-research",
            "medical",
            "academic",
            "research",
            "any",
        ] {
            assert!(
                t.satisfies(&child, &p(ancestor)),
                "missing ancestor {ancestor}"
            );
        }
        for unrelated in ["commercial", "marketing", "personal", "web-analytics"] {
            assert!(
                !t.satisfies(&child, &p(unrelated)),
                "{unrelated} is not an ancestor"
            );
        }
    }

    #[test]
    fn cycles_terminate() {
        let mut t = PurposeTaxonomy::empty();
        t.add("a", &["b"]);
        t.add("b", &["a"]);
        assert!(!t.satisfies(&p("a"), &p("c")));
        assert!(t.satisfies(&p("a"), &p("b")));
    }
}
