//! A one-way export of a policy as an RDF graph (ODRL + project vocabulary).
//!
//! Nothing in the architecture reads a policy back out of RDF: the pod
//! manager hands the DE App the structured [`UsagePolicy`], built with
//! [`UsagePolicy::builder`]. The export's one caller outside tests is the
//! repository benchmark, which times parsing its Turtle text.
//! The mapping follows ODRL 2.2 (policy → permission/prohibition → action +
//! constraints) with project terms (`duc:`) where ODRL has no equivalent
//! (retention, notification obligations, time windows).

use duc_rdf::vocab::{duc, odrl, rdf, xsd};
use duc_rdf::{Graph, Iri, Literal, Term, Triple};

use crate::model::{Action, Constraint, Duty, Effect, UsagePolicy};
use crate::PolicyError;

fn action_iri(action: Action) -> Iri {
    match action {
        Action::Use => odrl::use_(),
        Action::Read => odrl::read(),
        Action::Modify => odrl::modify(),
        Action::Delete => odrl::delete(),
        Action::Distribute => odrl::distribute(),
    }
}

fn int_literal(v: u64) -> Term {
    Term::Literal(Literal {
        lexical: v.to_string(),
        language: None,
        datatype: Some(xsd::integer()),
    })
}

/// Serializes a policy to an RDF graph.
///
/// # Errors
/// Returns [`PolicyError::Invalid`] when `id`, `resource` or `owner` is not
/// a valid IRI (the RDF binding requires IRI identity; the in-memory model
/// does not).
pub fn policy_to_graph(policy: &UsagePolicy) -> Result<Graph, PolicyError> {
    let mut g = Graph::new();
    let policy_iri =
        Iri::new(policy.id.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
    let resource_iri =
        Iri::new(policy.resource.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
    let owner_iri =
        Iri::new(policy.owner.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
    let s = Term::Iri(policy_iri.clone());
    g.insert(Triple::new(
        s.clone(),
        rdf::type_(),
        Term::Iri(duc::usage_policy()),
    ));
    g.insert(Triple::new(
        s.clone(),
        odrl::target(),
        Term::Iri(resource_iri),
    ));
    g.insert(Triple::new(
        s.clone(),
        odrl::assigner(),
        Term::Iri(owner_iri),
    ));
    g.insert(Triple::new(
        s.clone(),
        duc::policy_version(),
        int_literal(policy.version),
    ));

    for (ri, rule) in policy.rules.iter().enumerate() {
        let rule_node = Term::Blank(format!("rule{ri}"));
        let link = match rule.effect {
            Effect::Permit => odrl::permission(),
            Effect::Prohibit => odrl::prohibition(),
        };
        g.insert(Triple::new(s.clone(), link, rule_node.clone()));
        for action in &rule.actions {
            g.insert(Triple::new(
                rule_node.clone(),
                odrl::action(),
                Term::Iri(action_iri(*action)),
            ));
        }
        for (ci, c) in rule.constraints.iter().enumerate() {
            let c_node = Term::Blank(format!("rule{ri}c{ci}"));
            g.insert(Triple::new(
                rule_node.clone(),
                odrl::constraint(),
                c_node.clone(),
            ));
            match c {
                Constraint::MaxRetention(d) => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(duc::retention_limit()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::operator(),
                        Term::Iri(odrl::lteq()),
                    ));
                    g.insert(Triple::new(
                        c_node,
                        odrl::right_operand(),
                        int_literal(d.as_nanos()),
                    ));
                }
                Constraint::ExpiresAt(t) => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(odrl::date_time()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::operator(),
                        Term::Iri(odrl::lteq()),
                    ));
                    g.insert(Triple::new(
                        c_node,
                        odrl::right_operand(),
                        int_literal(t.as_nanos()),
                    ));
                }
                Constraint::Purpose(purposes) => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(odrl::purpose()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::operator(),
                        Term::Iri(odrl::is_any_of()),
                    ));
                    for p in purposes {
                        g.insert(Triple::new(
                            c_node.clone(),
                            odrl::right_operand(),
                            Term::literal_str(p.as_str()),
                        ));
                    }
                }
                Constraint::MaxAccessCount(n) => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(odrl::count()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::operator(),
                        Term::Iri(odrl::lteq()),
                    ));
                    g.insert(Triple::new(c_node, odrl::right_operand(), int_literal(*n)));
                }
                Constraint::AllowedRecipients(agents) => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(duc::allowed_recipient()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::operator(),
                        Term::Iri(odrl::is_any_of()),
                    ));
                    for a in agents {
                        let iri =
                            Iri::new(a.clone()).map_err(|e| PolicyError::Invalid(e.to_string()))?;
                        g.insert(Triple::new(
                            c_node.clone(),
                            odrl::right_operand(),
                            Term::Iri(iri),
                        ));
                    }
                }
                Constraint::TimeWindow {
                    not_before,
                    not_after,
                } => {
                    g.insert(Triple::new(
                        c_node.clone(),
                        odrl::left_operand(),
                        Term::Iri(odrl::date_time()),
                    ));
                    g.insert(Triple::new(
                        c_node.clone(),
                        duc::not_before(),
                        int_literal(not_before.as_nanos()),
                    ));
                    g.insert(Triple::new(
                        c_node,
                        duc::not_after(),
                        int_literal(not_after.as_nanos()),
                    ));
                }
            }
        }
    }
    for (di, duty) in policy.duties.iter().enumerate() {
        let d_node = Term::Blank(format!("duty{di}"));
        g.insert(Triple::new(s.clone(), odrl::duty(), d_node.clone()));
        match duty {
            Duty::DeleteWithin(d) => {
                g.insert(Triple::new(
                    d_node,
                    duc::deletion_obligation(),
                    int_literal(d.as_nanos()),
                ));
            }
            Duty::NotifyOwnerWithin(d) => {
                g.insert(Triple::new(
                    d_node,
                    duc::notify_obligation(),
                    int_literal(d.as_nanos()),
                ));
            }
            Duty::LogAccesses => {
                g.insert(Triple::new(
                    d_node,
                    duc::log_obligation(),
                    Term::Literal(Literal::boolean(true)),
                ));
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Purpose, Rule};
    use duc_sim::{SimDuration, SimTime};

    fn sample() -> UsagePolicy {
        UsagePolicy::builder(
            "https://bob.pod/policies#pol-medical",
            "https://bob.pod/data/medical.ttl",
            "https://bob.id/me",
        )
        .version(4)
        .permit(
            Rule::permit([Action::Use, Action::Read])
                .with_constraint(Constraint::Purpose(vec![
                    Purpose::new("medical"),
                    Purpose::new("academic"),
                ]))
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30)))
                .with_constraint(Constraint::MaxAccessCount(100))
                .with_constraint(Constraint::AllowedRecipients(vec![
                    "https://alice.id/me".into()
                ]))
                .with_constraint(Constraint::ExpiresAt(SimTime::from_secs(1_000_000)))
                .with_constraint(Constraint::TimeWindow {
                    not_before: SimTime::from_secs(10),
                    not_after: SimTime::from_secs(20),
                }),
        )
        .rule(Rule::prohibit([Action::Distribute]))
        .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
        .duty(Duty::NotifyOwnerWithin(SimDuration::from_hours(2)))
        .duty(Duty::LogAccesses)
        .build()
    }

    #[test]
    fn graph_contains_odrl_shape() {
        let g = policy_to_graph(&sample()).unwrap();
        let policy_iri = Iri::new("https://bob.pod/policies#pol-medical").unwrap();
        assert!(g.object(&policy_iri, &odrl::target()).is_some());
        assert!(g.object(&policy_iri, &odrl::assigner()).is_some());
        let links = |predicate: Iri| g.iter().filter(|t| t.predicate == predicate).count();
        assert_eq!(links(odrl::permission()), 1);
        assert_eq!(links(odrl::prohibition()), 1);
        assert_eq!(links(odrl::duty()), 3);
    }

    /// The export's Turtle bytes, recorded before the import half was
    /// deleted; never re-record. `sample()` has one permit rule with all six
    /// constraints, one prohibit rule and all three duties; the second
    /// policy is the input of the benchmark's `unit.rdf.turtle_parse_policy`
    /// op. Each text parses back to the graph it was written from.
    #[test]
    fn turtle_export_matches_its_known_answer() {
        let bench_input = UsagePolicy::builder(
            "https://p7.pod/data/set.bin#policy",
            "https://p7.pod/data/set.bin",
            "https://p7.id/me",
        )
        .permit(
            Rule::permit([Action::Use])
                .with_constraint(Constraint::MaxRetention(SimDuration::from_days(30))),
        )
        .duty(Duty::DeleteWithin(SimDuration::from_days(30)))
        .duty(Duty::LogAccesses)
        .build();
        for (policy, expected) in [
            (
                sample(),
                "c0701cbe9f82699ee64fa03006b01ad29074741c0da9211890b6540b13100b05",
            ),
            (
                bench_input,
                "2d9cdf2c82babd9c259f1a273ba51514e82e2e8a36941c4c5417c8a7c1c6fc1c",
            ),
        ] {
            let graph = policy_to_graph(&policy).unwrap();
            let text = duc_rdf::turtle::serialize(&graph);
            assert_eq!(
                duc_crypto::sha256(text.as_bytes()).to_hex(),
                expected,
                "\n{text}"
            );
            let reparsed = duc_rdf::turtle::parse(&text).unwrap();
            assert!(reparsed.is_isomorphic_simple(&graph), "\n{text}");
        }
    }

    #[test]
    fn invalid_iri_identity_is_rejected() {
        let p = UsagePolicy::builder("not an iri", "urn:r", "urn:o").build();
        assert!(policy_to_graph(&p).is_err());
    }
}
