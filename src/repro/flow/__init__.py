"""The runtime message-lifecycle audit.

``NDPBRIDGE_SANITIZE=1`` attaches a
:class:`~repro.flow.auditor.MessageAuditor` that tags every message id
and proves ``created == delivered + dropped + in_flight`` at run()
exit, flagging leaks, double deliveries, and rejections the stats
never recorded.  The static half -- the FL rules over the send->handle
graph -- lives in :mod:`repro.analyze`.
"""

from .auditor import FlowAuditError, MessageAuditor

__all__ = ["FlowAuditError", "MessageAuditor"]
