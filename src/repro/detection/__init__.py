"""The paper's primary contribution: online human/robot classification.

A :class:`~repro.detection.tracker.SessionTracker` groups the request
stream into ``<IP, User-Agent>`` sessions (1-hour idle timeout, §3).  Each
request is matched against the instrumentation registry; hits become
:class:`~repro.detection.events.DetectionEvent`s that update per-session
evidence flags:

* valid keyed mouse-image fetch  -> human activity (§2.1);
* CSS-beacon fetch               -> standard-browser behaviour (§2.2);
* UA-probe fetch                 -> JavaScript execution (+ forgery check);
* hidden-trap page fetch         -> crawler behaviour;
* wrong-key beacon fetch         -> blind-fetching robot.

:mod:`repro.detection.set_algebra` combines the per-session flags with the
paper's formula ``S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)`` and derives the
lower/upper human-fraction bounds and the maximum false-positive rate.
:mod:`repro.detection.online` produces per-request verdicts and the
requests-to-detect samples behind Figure 2, and
:mod:`repro.detection.policy` applies the post-classification rate
limiting and blocking described in §3.2.
"""

from repro.detection.events import DetectionEvent, EventKind
from repro.detection.online import OnlineClassifier, OnlineConfig
from repro.detection.policy import PolicyAction, PolicyConfig, RobotPolicy
from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.session import SessionKey, SessionState
from repro.detection.set_algebra import SessionSets, SetAlgebraSummary
from repro.detection.tracker import SessionTracker
from repro.detection.verdict import Label, Verdict

__all__ = [
    "DetectionEvent",
    "DetectionService",
    "EventKind",
    "Label",
    "OnlineClassifier",
    "OnlineConfig",
    "PolicyAction",
    "PolicyConfig",
    "RequestOutcome",
    "RobotPolicy",
    "SessionKey",
    "SessionSets",
    "SessionState",
    "SessionTracker",
    "SetAlgebraSummary",
    "Verdict",
]
