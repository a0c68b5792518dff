"""OneShot — the paper's primary contribution.

Certificates (Defs 1-6), trusted services (CHECKER / ACCUMULATOR,
Fig. 5c), the replica state machine (Fig. 5a/5b) and the Sec. VI-F
optimizations.  Block pulling (Fig. 6) is the one recovery path every
protocol inherits from :class:`~repro.protocols.common.BaseReplica`.
"""

from .certificates import (
    GENESIS_PROPOSAL,
    GENESIS_QC,
    Accumulator,
    NewView,
    NewViewCert,
    PrepareCert,
    Proposal,
    QuorumCert,
    StoreCert,
    Vote,
    VoteCert,
    certifies,
    nv_triple,
    qc_ref,
)
from .messages import (
    DeliverMsg,
    NewViewMsg,
    PrepCertMsg,
    ProposalMsg,
    PullReply,
    PullRequest,
    StoreMsg,
    VoteMsg,
)
from .replica import OneShotOptions, OneShotReplica, Prop, oneshot_with_options
from .tee_services import AccumulatorService, Checker

__all__ = [
    "GENESIS_PROPOSAL",
    "GENESIS_QC",
    "Accumulator",
    "NewView",
    "NewViewCert",
    "PrepareCert",
    "Proposal",
    "QuorumCert",
    "StoreCert",
    "Vote",
    "VoteCert",
    "certifies",
    "nv_triple",
    "qc_ref",
    "DeliverMsg",
    "NewViewMsg",
    "PrepCertMsg",
    "ProposalMsg",
    "PullReply",
    "PullRequest",
    "StoreMsg",
    "VoteMsg",
    "OneShotOptions",
    "OneShotReplica",
    "Prop",
    "oneshot_with_options",
    "AccumulatorService",
    "Checker",
]
