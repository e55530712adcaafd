"""The no-verification baseline: today's CVS, fully trusting the server.

Clients accept every answer at face value.  Used as the control in the
attack-gallery experiments: every attack succeeds silently against it,
which is the status quo the paper sets out to fix.
"""

from __future__ import annotations

from repro.protocols.base import (
    ProtocolClient,
    Request,
    Response,
    ServerProtocol,
    ServerState,
)


class NaiveServer(ServerProtocol):
    """Executes queries and returns bare answers (VO included but unused)."""

    # Responses carry no state commitment the client checks, so only
    # answer-content divergence counts as a differing response action.
    responses_commit_state = False

    def handle_request(self, user_id: str, request: Request, state: ServerState, round_no: int) -> Response:
        result = state.database.execute(request.query)
        state.ctr += 1
        return Response(result=result)


class NaiveClient(ProtocolClient):
    """Believes everything; never detects anything."""
