"""README.md and ARCHITECTURE.md describe the tree, and these tests keep
them doing so.

Over both docs:

* every backticked repo path exists, looked up under the repo root,
  ``src/`` or ``src/repro/``, and a ``path:line`` is within its file;
* every backticked dotted ``repro.…`` name imports or resolves;
* every backticked code identifier — CamelCase, or a name with ``_``; a
  trailing ``*`` makes it a prefix — appears in ``src/``, ``tests/``,
  ``perfbench/``, ``examples/``, ``benchmarks/`` or ``.github/``;
* no ``PR <n>``: history lives in CHANGES.md;
* no name of :data:`RETIRED`, which also guards ``src/``.

Every "ARCHITECTURE.md, <section>" citation in ``src/``, ``tests/`` or
``examples/`` begins one of its headings, and its ``backend.OPS``,
``MESSAGE_TYPES`` and ``ALLOWED_KINDS`` tables are the ones rendered here
from the code (a failing check prints the table to paste in).

ROADMAP.md and CHANGES.md are history and stay out.  ``perfbench/README.md``
joins the checked set in the next ``benchmark`` PR, the first that may
edit ``perfbench/``; its known stale lines are listed under ROADMAP item
1(a).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ("README.md", "ARCHITECTURE.md")
LOOKUP = (ROOT, ROOT / "src", ROOT / "src" / "repro")
CODE = ("src", "tests", "perfbench", "examples", "benchmarks", ".github")
EXTENSIONS = (".py", ".md", ".json", ".yml", ".toml", ".txt")

#: Retired knobs and test-only surface: none of these may come back,
#: in ``src/`` or in the docs.
RETIRED = re.compile(
    r"s2_workers|s2_mode|coalesce_ms|shared_memory|transport_wrap|"
    r"QuerySession|register_relation|invalidate_(cache|slices)|"
    r"max_pending|cache_capacity|_depth_spill|export_depth_history|"
    r"import_depth_history|shard_(service|client_for|placement|executor)|"
    r"Shard(Client|Batch|WorkerError)|RemoteShard|(mutation|shard)_delta|"
    r"_SLICE_(STORE|LOCK)|MUTATED?\b|mutate_relation|_mutate_registration|"
    r"registration_mutations|unspill|_rekey_window|_window_relation_key|"
    r"drop_depth_history|_retire_relation_id|_refresh_bounds|"
    r"_refresh_flow|wait_rounds|_IDLE_TTL|cap_hint|_scheduler_loop|"
    r"_drain_queue|_scheduler_thread_objs|_RemoteError|begin_exchange|"
    r"finish_exchange|FrameService|FrameClient|frame_service|"
    r"PROTOCOL_BANNER_V2|SUPPORTED_BANNERS|protocol_version|warm_start|"
    r"min_check_depth|halting_depth_hint|record_halting_depth|"
    r"DEPTH_HISTORY_SIZE|_depth_history|_effective_config|"
    r"baseline_engines|NaiveShipEngine|SknnScanEngine|NaiveTopKQuery|"
    r"AggregateByRecord|_naive_topk|naive_topk_ids|aggregate_by_record|"
    r"_aggregate_records|full_reveal|register_engine|resolve_engine|"
    r"engine_names|is_registered_engine|decrypt_signed_for_protocol|"
    r"TopKClient|owns_server|submit_many|fits_aggregate|repro\.client|"
    r"backend\.(en|de)crypt_batch|def (execute|mutate)\(|DESIGN\.md|"
    r"_decrypt_crt|_residues_mod_p|ThreadedTransport|make_transport|"
    r"s2-session|RoundBatcher|_read_loop|[\"']S2Client:|gmpy2|"
    r"Gmpy2Backend|GmpKernelBackend|_SharedBatchOps|use_backend|"
    r"available_backends|_TLS\b|repro_powmod_vec|repro_invert\b|"
    r"FeistelPrp|_feistel|as_list\(|nra\.ta\b|ta_topk|(en|de)crypt_vector|"
    r"raw_decrypt\(|decrypt_signed_batch\b|def from_bytes|"
    r"LayeredCiphertext\.(from|to)_bytes|decrypt_inner\(|wrap_inner_value|"
    r"layered_select\(|layered_one_hot_select|recover_enc\(|"
    r"ehl_equal_plain|encode_random|"
    r"(def |\.)(blind|unblind|fresh_seed|encrypt_seed)\(|blind_many|"
    r"unblind_many|junk_item|by_observer|hit_rate\b|mutation_log|"
    r"key=\"(worst|best)\"|_valid_registration|blinded_select_flow|"
    r"repro_(blind_round|ehl_minus|masked_unseen|select_bounds|select_absorb)|"
    r"check_(blind_round|ehl_minus|masked_unseen|select_bounds|select_absorb)|"
    r"backend\.(blind_round|ehl_minus|masked_unseen|select_bounds|select_absorb)\(|"
    r"REPRO_MONT|ready.file|LatencyTransport|set_enabled|REPRO_METRICS|"
    r"bench_throughput|bench_remote|\bffibuilder\b|_RELATION_(STORE|REFS|BLOBS)|"
    r"_STORE_LOCK|(export|release)_relation|_relation_blob"
)


def _files(top: str, suffixes=None):
    for path in sorted((ROOT / top).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and (
            suffixes is None or path.suffix in suffixes
        ):
            yield path


def _line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


@functools.cache
def _spans(doc: str) -> list[tuple[int, str]]:
    """(line, text) of every inline code span outside fenced blocks."""
    lines, fenced = [], False
    for line in (ROOT / doc).read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        lines.append("" if fenced or line.lstrip().startswith("```") else line)
    text = "\n".join(lines)
    return [
        (_line(text, found.start()), " ".join(found.group(1).split()))
        for found in re.finditer(r"`([^`]+)`", text)
    ]


def _tokens(doc: str):
    for line, span in _spans(doc):
        for token in span.split():
            yield line, token.strip("()[],;:'\"")


def _path(token: str) -> tuple[str, int | None] | None:
    """``(path, line)`` when the token names a repo path, else None."""
    if "://" in token or re.search(r"[<>{}$~*]", token) or token.startswith("/"):
        return None
    found = re.fullmatch(r"([\w.-]+(?:/[\w.-]*)*)(?:::\w+)*(?::(\d+)(?:[–-]\d+)?)?", token)
    if not found:
        return None
    name, line = found.group(1), found.group(2)
    if "/" in name:
        first = name.split("/")[0]
        if not (name.endswith(EXTENSIONS + ("/",)) or any((r / first).is_dir() for r in LOOKUP)):
            return None
    elif name.startswith(".") or not name.endswith(EXTENSIONS):
        return None
    return name, int(line) if line else None


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True
    return False


@functools.cache
def _code_words() -> frozenset[str]:
    words = set()
    for top in CODE:
        for path in _files(top, EXTENSIONS):
            if path.name != "test_docs.py":
                words.update(re.findall(r"\w+", path.read_text(errors="replace"), re.ASCII))
    return frozenset(words)


def _is_identifier(word: str) -> bool:
    bare = word.rstrip("*")
    return "_" in bare.strip("_") or re.search(r"[A-Z][a-z0-9]+[A-Z]", bare) is not None


def _exists(word: str) -> bool:
    if word.endswith("*"):
        return any(w.startswith(word[:-1]) for w in _code_words())
    return word in _code_words()


@pytest.mark.parametrize("doc", DOCS)
def test_repo_paths_exist(doc):
    missing = []
    for line, token in _tokens(doc):
        named = _path(token)
        if named is None:
            continue
        name, at = named
        target = next((r / name for r in LOOKUP if (r / name).exists()), None)
        if target is None:
            missing.append(f"{doc}:{line}: `{name}` does not exist")
        elif at is not None and (
            target.is_dir() or at > len(target.read_text(errors="replace").splitlines())
        ):
            missing.append(f"{doc}:{line}: `{token}` is past the end of {name}")
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_repro_names_resolve(doc):
    broken = [
        f"{doc}:{line}: `{found.group()}` does not resolve"
        for line, token in _tokens(doc)
        if (found := re.match(r"repro(?:\.\w+)+", token)) and not _resolves(found.group())
    ]
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("doc", DOCS)
def test_code_identifiers_exist(doc):
    unknown = []
    for line, token in _tokens(doc):
        if "://" in token or token.startswith("repro."):
            continue
        if _path(token):
            token = " ".join(token.split("::")[1:])  # a test path's names
        for word in re.findall(r"(?<![\w*])[A-Za-z_]\w*\*?", token, re.ASCII):
            if _is_identifier(word) and not _exists(word):
                unknown.append(f"{doc}:{line}: `{word}` appears nowhere in {', '.join(CODE)}")
    assert not unknown, "\n".join(unknown)


@pytest.mark.parametrize("doc", DOCS)
def test_no_pr_numbers(doc):
    text = (ROOT / doc).read_text()
    found = [
        f"{doc}:{_line(text, m.start())}: {m.group()}"
        for m in re.finditer(r"\bPRs? #?\d+", text)
    ]
    assert not found, "history belongs in CHANGES.md:\n" + "\n".join(found)


@pytest.mark.parametrize("where", ("src", *DOCS))
def test_no_retired_names(where):
    paths = _files(where) if where == "src" else [ROOT / where]
    found = []
    for path in paths:
        text = path.read_text(errors="replace")
        found += [
            f"{path.relative_to(ROOT)}:{_line(text, m.start())}: {m.group()}"
            for m in RETIRED.finditer(text)
        ]
    assert not found, "\n".join(found)


def test_architecture_citations_begin_a_heading():
    headings = [
        line.lstrip("#").strip().lower()
        for line in (ROOT / "ARCHITECTURE.md").read_text().splitlines()
        if line.startswith("#")
    ]
    stale = []
    for top in ("src", "tests", "examples"):
        for path in _files(top, (".py",)):
            text = re.sub(r"\s*\n\s*(?:#\s*)?", " ", path.read_text())
            for cited in re.finditer(
                r'ARCHITECTURE\.md(?:,| \() ?(?:"([^"]+)"|([A-Za-z][\w ]*\w))', text
            ):
                section = cited.group(1) or cited.group(2)
                if not any(h.startswith(section.lower()) for h in headings):
                    stale.append(f"{path.relative_to(ROOT)}: ARCHITECTURE.md, {section!r}")
    assert not stale, "no such heading:\n" + "\n".join(stale)


def _ops_table() -> list[str]:
    from repro.crypto import backend

    rows = ["| op | modulus | operands (`*` range-checked, `[…]` optional) |", "|---|---|---|"]
    for op, (modulus, kinds, optional, residues, _count) in backend.OPS.items():
        shown = [kind + "*" * (i in residues) for i, kind in enumerate(kinds)]
        if optional:
            shown[-optional:] = [f"[{kind}]" for kind in shown[-optional:]]
        rows.append(f"| `{op}` | `{modulus}` | `{' '.join(shown)}` |")
    return rows


def _messages_table() -> list[str]:
    from repro.net import messages

    rows = ["| wire id | message | fields |", "|---|---|---|"]
    for type_id, cls in enumerate(messages.MESSAGE_TYPES):
        if cls is None:
            rows.append(f"| {type_id} | retired | |")
        else:
            fields = " ".join(messages.message_fields(cls)[1:])
            rows.append(f"| {type_id} | `{cls.__name__}` | `{fields}` |")
    return rows


def _kinds_table() -> list[str]:
    from repro.core.leakage import ALLOWED_KINDS

    rows = ["| kind | licensed by |", "|---|---|"]
    rows += [f"| `{kind}` | {why} |" for kind, why in ALLOWED_KINDS.items()]
    return rows


@pytest.mark.parametrize("render", (_ops_table, _messages_table, _kinds_table))
def test_tables_match_the_code(render):
    rendered = render()
    lines = (ROOT / "ARCHITECTURE.md").read_text().splitlines()
    table = []
    if rendered[0] in lines:
        start = lines.index(rendered[0])
        table = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert table == rendered, "ARCHITECTURE.md should hold:\n" + "\n".join(rendered)
