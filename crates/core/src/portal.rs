//! The researcher-facing portal: account requests, advisory-board
//! vetting, automated provisioning, and notifications.
//!
//! §3: "Ultimately, we plan a web portal by which a researcher can
//! request an account. We (via an advisory board) will vet experiments,
//! at which point the provisioning will be automated, configuring
//! servers and giving researchers the configuration they need for their
//! clients." And: "The system will then notify researchers when their
//! announcements will be executed."

use crate::experiment::ExperimentId;
use crate::testbed::{Testbed, TestbedError};
use peering_netsim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies an account request / account.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u32);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// A researcher's experiment proposal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Proposal {
    /// Researcher contact.
    pub email: String,
    /// Institution.
    pub institution: String,
    /// Experiment title.
    pub title: String,
    /// What it will announce and why (the board reads this).
    pub abstract_text: String,
    /// Requested sites.
    pub sites: Vec<usize>,
    /// Whether the experiment needs controlled spoofing approval.
    pub needs_spoofing: bool,
}

/// Where a request stands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestState {
    /// Waiting for the advisory board.
    PendingReview,
    /// Approved; not yet provisioned.
    Approved,
    /// Provisioned with a live experiment.
    Provisioned(ExperimentId),
    /// Rejected with a reason.
    Rejected(String),
}

/// A queued notification to the researcher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Notification {
    /// When it was queued.
    pub time: SimTime,
    /// Destination address.
    pub email: String,
    /// Body.
    pub message: String,
}

/// The advisory board's vetting policy. The real board is humans; the
/// model encodes the published criteria.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VettingPolicy {
    /// Institutional email required (no free-mail research accounts).
    pub require_institutional_email: bool,
    /// Minimum abstract length — the board wants a real description.
    pub min_abstract_len: usize,
    /// Spoofing requests need extra scrutiny (held for manual review).
    pub hold_spoofing_requests: bool,
}

impl Default for VettingPolicy {
    fn default() -> Self {
        VettingPolicy {
            require_institutional_email: true,
            min_abstract_len: 80,
            hold_spoofing_requests: true,
        }
    }
}

/// The board's decision for a proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vetting {
    /// Approve it.
    Approve,
    /// Reject with a reason.
    Reject(String),
    /// Keep pending (e.g. spoofing requests awaiting a human).
    Hold,
}

impl VettingPolicy {
    /// Apply the written criteria to a proposal.
    pub fn vet(&self, p: &Proposal) -> Vetting {
        if self.require_institutional_email
            && !(p.email.ends_with(".edu")
                || p.email.ends_with(".ac.uk")
                || p.email.contains(".edu.")
                || p.email.ends_with(".br"))
        {
            return Vetting::Reject("institutional email required".into());
        }
        if p.abstract_text.len() < self.min_abstract_len {
            return Vetting::Reject("abstract too short for review".into());
        }
        if p.needs_spoofing && self.hold_spoofing_requests {
            return Vetting::Hold;
        }
        Vetting::Approve
    }
}

/// Parameters for [`Portal::provision`]. Replaces the old positional
/// `(RequestId, &mut Testbed)` form so provisioning options (site
/// overrides, operator notes, …) extend without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ProvisionRequest {
    /// The approved account request to provision.
    pub id: RequestId,
    /// Override the proposal's requested sites (e.g. when capacity
    /// forces operators to place the experiment elsewhere).
    pub sites: Option<Vec<usize>>,
    /// Operator note appended to the provisioning notification.
    pub note: Option<String>,
}

impl ProvisionRequest {
    /// Provision `id` exactly as proposed.
    pub fn new(id: RequestId) -> Self {
        ProvisionRequest {
            id,
            ..Default::default()
        }
    }
}

/// The portal: request intake, vetting, provisioning, notifications.
#[derive(Debug, Default)]
pub struct Portal {
    requests: BTreeMap<RequestId, (Proposal, RequestState)>,
    next_id: u32,
    /// Vetting criteria.
    pub policy: VettingPolicy,
    /// Outbound notification queue.
    pub notifications: Vec<Notification>,
}

impl Portal {
    /// A portal with the default policy.
    pub fn new() -> Self {
        Portal {
            next_id: 1,
            ..Default::default()
        }
    }

    /// Submit a proposal; it is vetted immediately against the written
    /// criteria (held requests stay pending for the human board).
    pub fn submit(&mut self, proposal: Proposal, now: SimTime) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let state = match self.policy.vet(&proposal) {
            Vetting::Approve => {
                self.notify(now, &proposal.email, format!("{id}: approved"));
                RequestState::Approved
            }
            Vetting::Reject(reason) => {
                self.notify(now, &proposal.email, format!("{id}: rejected — {reason}"));
                RequestState::Rejected(reason)
            }
            Vetting::Hold => {
                self.notify(
                    now,
                    &proposal.email,
                    format!("{id}: pending advisory board review"),
                );
                RequestState::PendingReview
            }
        };
        self.requests.insert(id, (proposal, state));
        id
    }

    /// A board member resolves a held request.
    pub fn board_decision(&mut self, id: RequestId, approve: bool, now: SimTime) {
        let Some((proposal, state)) = self.requests.get_mut(&id) else {
            return;
        };
        if *state != RequestState::PendingReview {
            return;
        }
        *state = if approve {
            self.notifications.push(Notification {
                time: now,
                email: proposal.email.clone(),
                message: format!("{id}: approved by the board"),
            });
            RequestState::Approved
        } else {
            self.notifications.push(Notification {
                time: now,
                email: proposal.email.clone(),
                message: format!("{id}: rejected by the board"),
            });
            RequestState::Rejected("board rejection".into())
        };
    }

    /// Provision an approved request on the testbed: allocates the
    /// prefix, creates the client, applies spoofing approval if granted.
    /// Takes a [`ProvisionRequest`] so provisioning options can grow
    /// without changing every call site again.
    pub fn provision(
        &mut self,
        req: ProvisionRequest,
        tb: &mut Testbed,
    ) -> Result<ExperimentId, TestbedError> {
        let id = req.id;
        let Some((proposal, state)) = self.requests.get(&id) else {
            return Err(TestbedError::UnknownExperiment(ExperimentId(0)));
        };
        if *state != RequestState::Approved {
            return Err(TestbedError::UnknownExperiment(ExperimentId(0)));
        }
        let proposal = proposal.clone();
        let sites = req.sites.as_deref().unwrap_or(&proposal.sites);
        let exp = tb.new_experiment(&proposal.title, &proposal.email, sites)?;
        let now = tb.now();
        let client = tb.clients[&exp].clone();
        self.requests.get_mut(&id).expect("present").1 = RequestState::Provisioned(exp);
        let mut message = format!(
            "{id}: provisioned as {exp} — prefix {}, {} tunnels; client config attached",
            client.prefix,
            client.tunnels.len()
        );
        if let Some(note) = &req.note {
            message.push_str(" — ");
            message.push_str(note);
        }
        self.notify(now, &proposal.email, message);
        Ok(exp)
    }

    fn notify(&mut self, time: SimTime, email: &str, message: String) {
        self.notifications.push(Notification {
            time,
            email: email.to_string(),
            message,
        });
    }

    /// Current state of a request.
    pub fn state(&self, id: RequestId) -> Option<&RequestState> {
        self.requests.get(&id).map(|(_, s)| s)
    }

    /// Requests awaiting the human board.
    pub fn pending_review(&self) -> Vec<RequestId> {
        self.requests
            .iter()
            .filter(|(_, (_, s))| *s == RequestState::PendingReview)
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::TestbedConfig;

    fn proposal(email: &str, spoof: bool) -> Proposal {
        Proposal {
            email: email.into(),
            institution: "USC".into(),
            title: "anycast study".into(),
            abstract_text: "We will announce our /24 from multiple sites to map anycast \
                            catchments and measure failover behavior under withdrawal."
                .into(),
            sites: vec![0, 1],
            needs_spoofing: spoof,
        }
    }

    #[test]
    fn good_proposal_flows_to_provisioning() {
        let mut tb = Testbed::build(TestbedConfig::small(400));
        let mut portal = Portal::new();
        let id = portal.submit(proposal("alice@usc.edu", false), tb.now());
        assert_eq!(portal.state(id), Some(&RequestState::Approved));
        let exp = portal
            .provision(ProvisionRequest::new(id), &mut tb)
            .expect("provisions");
        assert!(matches!(
            portal.state(id),
            Some(RequestState::Provisioned(e)) if *e == exp
        ));
        assert!(tb.experiments.contains_key(&exp));
        // The researcher got approval + provisioning notifications.
        let mine: Vec<_> = portal
            .notifications
            .iter()
            .filter(|n| n.email == "alice@usc.edu")
            .collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[1].message.contains("prefix"));
    }

    #[test]
    fn freemail_and_thin_abstracts_are_rejected() {
        let mut portal = Portal::new();
        let id = portal.submit(proposal("bob@gmail.com", false), SimTime::ZERO);
        assert!(matches!(portal.state(id), Some(RequestState::Rejected(_))));
        let mut thin = proposal("carol@usc.edu", false);
        thin.abstract_text = "announce stuff".into();
        let id2 = portal.submit(thin, SimTime::ZERO);
        assert!(matches!(portal.state(id2), Some(RequestState::Rejected(_))));
        // A rejected request cannot be provisioned.
        let mut tb = Testbed::build(TestbedConfig::small(401));
        assert!(portal
            .provision(ProvisionRequest::new(id), &mut tb)
            .is_err());
    }

    #[test]
    fn spoofing_requests_wait_for_the_board() {
        let mut tb = Testbed::build(TestbedConfig::small(402));
        let mut portal = Portal::new();
        let id = portal.submit(proposal("dan@usc.edu", true), tb.now());
        assert_eq!(portal.state(id), Some(&RequestState::PendingReview));
        assert_eq!(portal.pending_review(), vec![id]);
        // Cannot provision while pending.
        assert!(portal
            .provision(ProvisionRequest::new(id), &mut tb)
            .is_err());
        // Board approves; provisioning proceeds.
        portal.board_decision(id, true, tb.now());
        assert_eq!(portal.state(id), Some(&RequestState::Approved));
        assert!(portal.provision(ProvisionRequest::new(id), &mut tb).is_ok());
        assert!(portal.pending_review().is_empty());
    }

    #[test]
    fn board_can_reject() {
        let mut portal = Portal::new();
        let id = portal.submit(proposal("eve@usc.edu", true), SimTime::ZERO);
        portal.board_decision(id, false, SimTime::ZERO);
        assert!(matches!(portal.state(id), Some(RequestState::Rejected(_))));
        // Deciding again is a no-op.
        portal.board_decision(id, true, SimTime::ZERO);
        assert!(matches!(portal.state(id), Some(RequestState::Rejected(_))));
    }
}
