"""The ``SecTopK = (Enc, Token, SecQuery)`` scheme (Sections 4–10).

* :mod:`repro.core.params`   — system-wide cryptographic parameters.
* :mod:`repro.core.scheme`   — the data-owner/client API: ``encrypt``
  (Algorithm 2), ``token`` (Section 7), ``query`` (Algorithm 3) and
  ``reveal``.
* :mod:`repro.core.relation` — the encrypted relation ``ER``.
* :mod:`repro.core.engine`   — S1's oblivious NRA engine with the three
  query variants Qry_F / Qry_E / Qry_Ba and the eager/literal best-score
  modes (ARCHITECTURE.md, "Layer 2").
* :mod:`repro.core.leakage`  — declared leakage profiles and the audit
  used by the security tests.
* :mod:`repro.core.results`  — query results and statistics.
"""

from repro.core.params import SystemParams
from repro.core.results import QueryConfig, QueryResult
from repro.core.scheme import SecTopK
from repro.core.token import Token

__all__ = ["SystemParams", "SecTopK", "Token", "QueryConfig", "QueryResult"]
