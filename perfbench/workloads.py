"""The three benchmark workloads: set-up from a seed, one job, and its checks.

A job is one fixed unit of user work. It starts from a cold construction
cache (``build_a`` and ``build_b`` are cleared first), because a CLI or
``full_report.py`` user pays construction on every process start. A job
returns the list of its mismatches against ``expected.json``; an empty list
means every output was verified. The seed changes only generated data
(messages, permutations, step order), never an expected value.

Every call into a public ``altmat`` function is wrapped in a tracer span
named ``<layer>.<operation>``; with tracing off the span is a shared no-op.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "altmat" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: altmat sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from altmat import (  # noqa: E402
    BitMatrix,
    build_a,
    build_b,
    build_l_oracle,
    build_m,
    decompose_blocks,
    encode,
    exact_rank,
    export_matrix,
    gf2_rank,
    import_matrix,
    is_parity_check,
    isodual_witness,
    make_code,
    make_encoder,
    permutation_equivalent,
    verify_codeword,
    weight_enumerator,
)
from altmat.formats import FORMATS  # noqa: E402
from altmat.reports import (  # noqa: E402
    ENCODER_GRID,
    code_report,
    construction_report,
    decompose_report,
    encoder_report,
    oracle_report,
    rank_report,
)

WORKLOADS = ("report", "certify", "codec")

# "full" is what the benchmark measures; "smoke" runs the same jobs at
# reduced size so the smoke test finishes in seconds. The full certify and
# codec sizes keep a job near 0.3 s, so that a 40 s run holds over a hundred
# jobs and job_s_tail is a high percentile (see END_TO_END in run.py).
SIZES = {
    "full": {
        # exactly the report scripts/full_report.py builds with its defaults
        "report": {
            "construction": (6, 6),
            "square_rank": 5,
            "incidence_oracle": 5,
            "decompose": (4, 5),
            "codes": (
                ("sparse_k3", 3, "sparse"),
                ("sparse_k4", 4, "sparse"),
                ("sparse_k6", 6, "sparse"),
                ("dense_k4", 4, "dense"),
            ),
            "encoder": ENCODER_GRID,
        },
        "certify": {
            "code_k": 6,
            "gf2_rank": (7, 6),
            "oracle_rank": 5,
            "square_rank": (5, 5),
            "isomorphism": 5,
            "decompose": 5,
            "enumerate": (5, 3),
        },
        "codec": {"encoder": (7, 5), "messages": 300, "members": (("a", 7, 5), ("b", 5, 5))},
    },
    "smoke": {
        "report": {
            "construction": (3, 3),
            "square_rank": 3,
            "incidence_oracle": 3,
            "decompose": (4,),
            "codes": (("sparse_k3", 3, "sparse"),),
            "encoder": ((3, 2), (4, 2)),
        },
        "certify": {
            "code_k": 4,
            "gf2_rank": (4, 4),
            "oracle_rank": 4,
            "square_rank": (3, 3),
            "isomorphism": 4,
            "decompose": 4,
            "enumerate": (3, 3),
        },
        "codec": {"encoder": (4, 2), "messages": 20, "members": (("a", 4, 3), ("b", 3, 3))},
    },
}

# Every span name a job opens, besides the root span "job".
SPANS = (
    "reports.construction",
    "reports.square_rank",
    "reports.oracle",
    "reports.decompose",
    "reports.codes",
    "reports.encoder",
    "reports.json",
    "families.build",
    "codes.make_code",
    "codes.parity_check",
    "codes.isodual",
    "codes.enumerate",
    "bitmatrix.gf2_rank",
    "bitmatrix.exact_rank",
    "incidence.build",
    "incidence.isomorphism",
    "incidence.decompose",
    "encoder.setup",
    "encoder.encode",
    "encoder.verify",
    *(f"formats.export.{fmt}" for fmt in FORMATS),
    *(f"formats.import.{fmt}" for fmt in FORMATS),
)

# Exact work counts a job records while traced, with their units.
COUNTS = {
    "codes.codewords_enumerated": "count",
    "encoder.codewords": "count",
    **{f"formats.bytes.{fmt}": "B" for fmt in FORMATS},
    "bitmatrix.bits_in.gf2_rank": "bit",
    "bitmatrix.bits_in.exact_rank": "bit",
}

CERTIFY_STEPS = (
    "code_certificates",
    "gf2_rank",
    "oracle_rank",
    "square_rank",
    "isomorphism",
    "decompose",
    "enumerate",
)


@dataclass
class State:
    """Everything one workload needs to run jobs: sizes, inputs, expected values."""

    workload: str
    sizes: dict
    expected: dict
    inputs: dict


def load_expected(profile: str = "full") -> dict:
    with open(HERE / "expected.json", encoding="ascii") as fh:
        return json.load(fh)[profile]


def setup(workload: str, seed: int, profile: str = "full") -> State:
    """Load the expected values and generate the seeded inputs of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    sizes = dict(SIZES[profile][workload])
    inputs = _INPUTS[workload](rng, sizes)
    return State(workload, sizes, load_expected(profile)[workload], inputs)


def run_job(state: State, tracer) -> list[str]:
    """One job from a cold construction cache; returns its mismatches."""
    build_a.cache_clear()
    build_b.cache_clear()
    problems: list[str] = []
    _JOBS[state.workload](state, tracer, problems)
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def section_digest(section) -> str:
    return sha256(json.dumps(section, sort_keys=True))


def _expect(problems, tracer, span, what, got, want) -> None:
    if got != want:
        problems.append(f"{span}: {what} = {got!r}, expected {want!r}")
        tracer.fail(span)


# -- report --------------------------------------------------------------------


REPORT_SECTIONS = {
    "construction": "reports.construction",
    "square_rank": "reports.square_rank",
    "incidence_oracle": "reports.oracle",
    "decompose": "reports.decompose",
    "codes": "reports.codes",
    "encoder": "reports.encoder",
}


def _report_inputs(rng, sizes) -> dict:
    return {}


def _report_job(st: State, tr, problems) -> None:
    z = st.sizes
    with tr.span("reports.construction"):
        construction = construction_report(*z["construction"])
    with tr.span("reports.square_rank"):
        square_rank = rank_report(z["square_rank"])
    with tr.span("reports.oracle"):
        oracle = oracle_report(z["incidence_oracle"])
    decompose = {}
    for n in z["decompose"]:
        with tr.span("reports.decompose"):
            decompose[f"n{n}"] = decompose_report(n)
    codes = {}
    for key, k, variant in z["codes"]:
        with tr.span("reports.codes"):
            codes[key] = code_report(k, variant)
    with tr.span("reports.encoder"):
        encoder = encoder_report(z["encoder"])
    report = {
        "construction": construction,
        "square_rank": square_rank,
        "incidence_oracle": oracle,
        "decompose": decompose,
        "codes": codes,
        "encoder": encoder,
    }
    with tr.span("reports.json"):
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    e = st.expected
    digest = sha256(text)
    if digest != e["sha256"]:
        # name the sections that differ, so a failure points at a layer
        for key, span in REPORT_SECTIONS.items():
            _expect(problems, tr, span, f"sha256 of {key}", section_digest(report[key]),
                    e["sections"][key])
        _expect(problems, tr, "reports.json", "sha256 of the report", digest, e["sha256"])


# -- certify -------------------------------------------------------------------


def _permuted(m: BitMatrix, rng: random.Random) -> BitMatrix:
    """P·m·Q for seeded row and column permutations P and Q."""
    rows = rng.sample(range(m.rows), m.rows)
    cols = rng.sample(range(m.cols), m.cols)
    words = []
    for i in rows:
        w = m.bits[i]
        words.append(sum(1 << t for t, j in enumerate(cols) if w >> j & 1))
    return BitMatrix(m.rows, m.cols, tuple(words))


def _certify_inputs(rng, sizes) -> dict:
    k = sizes["isomorphism"]
    return {
        "order": rng.sample(CERTIFY_STEPS, len(CERTIFY_STEPS)),
        "permuted": _permuted(build_a(k, k - 1), rng),
    }


def _certify_job(st: State, tr, problems) -> None:
    z, e = st.sizes, st.expected
    for step in st.inputs["order"]:
        if step == "code_certificates":
            with tr.span("codes.make_code"):
                code = make_code(z["code_k"], "sparse")
            with tr.span("codes.parity_check"):
                pc = is_parity_check(code)
            _expect(problems, tr, "codes.parity_check", "(ok, generator rank, parity rank)",
                    [pc.ok, pc.generator_rank, pc.parity_rank], e["parity_check"])
            with tr.span("codes.isodual"):
                iso = isodual_witness(code)
            _expect(problems, tr, "codes.isodual", "ok", iso.ok, e["isodual_ok"])
        elif step == "gf2_rank":
            with tr.span("families.build"):
                a = build_a(*z["gf2_rank"])
            tr.count("bitmatrix.bits_in.gf2_rank", a.rows * a.cols)
            with tr.span("bitmatrix.gf2_rank"):
                r = gf2_rank(a)
            _expect(problems, tr, "bitmatrix.gf2_rank", "rank", r, e["gf2_rank"])
        elif step == "oracle_rank":
            with tr.span("incidence.build"):
                oracle = build_l_oracle(z["oracle_rank"])
            tr.count("bitmatrix.bits_in.exact_rank", oracle.rows * oracle.cols)
            with tr.span("bitmatrix.exact_rank"):
                r = exact_rank(oracle)
            _expect(problems, tr, "bitmatrix.exact_rank", "oracle rank", r, e["oracle_rank"])
        elif step == "square_rank":
            with tr.span("families.build"):
                a = build_a(*z["square_rank"])
            tr.count("bitmatrix.bits_in.exact_rank", a.rows * a.cols)
            with tr.span("bitmatrix.exact_rank"):
                r = exact_rank(a)
            _expect(problems, tr, "bitmatrix.exact_rank", "square rank", r, e["square_rank"])
        elif step == "isomorphism":
            with tr.span("incidence.build"):
                oracle = build_l_oracle(z["isomorphism"])
            with tr.span("incidence.isomorphism"):
                eq = permutation_equivalent(oracle, st.inputs["permuted"])
            _expect(problems, tr, "incidence.isomorphism", "equivalent", eq, e["isomorphic"])
        elif step == "decompose":
            with tr.span("incidence.build"):
                m = build_m(z["decompose"])
            with tr.span("incidence.decompose"):
                rep = decompose_blocks(m)
            _expect(problems, tr, "incidence.decompose", "(blocks, zero columns, unidentified)",
                    [rep.blocks, rep.zero_columns, rep.unidentified], e["decompose"])
        elif step == "enumerate":
            with tr.span("families.build"):
                a = build_a(*z["enumerate"])
            with tr.span("codes.enumerate"):
                w = weight_enumerator(a)
            tr.count("codes.codewords_enumerated", w.total())
            _expect(problems, tr, "codes.enumerate", "sha256 of the histogram",
                    sha256(json.dumps(w.coeffs)), e["enumerator_sha256"])
        else:
            raise ValueError(f"unknown certify step {step!r}")


# -- codec ---------------------------------------------------------------------


def _codec_inputs(rng, sizes) -> dict:
    k, ell = sizes["encoder"]
    s = comb(k + ell - 1, ell) - comb(k + ell - 1, ell - 1)
    messages = []
    for _ in range(sizes["messages"]):
        w = rng.getrandbits(s)
        messages.append(tuple((w >> i) & 1 for i in range(s)))
    pairs = [(member, fmt) for member, _, _ in sizes["members"] for fmt in FORMATS]
    return {
        "messages": messages,
        "flip": rng.randrange(comb(k + ell - 1, ell)),
        "round_trips": rng.sample(pairs, len(pairs)),
    }


def _codec_job(st: State, tr, problems) -> None:
    z, e, inp = st.sizes, st.expected, st.inputs
    k, ell = z["encoder"]
    messages = inp["messages"]
    with tr.span("encoder.setup"):
        enc = make_encoder(k, ell)
    s = enc.partition.message_len
    _expect(problems, tr, "encoder.setup", "message length", s, e["message_len"])
    with tr.span("encoder.encode", calls=len(messages)):
        words = [encode(enc, m) for m in messages]
    tr.count("encoder.codewords", len(words))
    _expect(problems, tr, "encoder.encode", "codeword length", len(words[0]), e["length"])
    _expect(problems, tr, "encoder.encode", "codewords not ending in their message",
            sum(w[-s:] != m for w, m in zip(words, messages)), 0)
    flipped = list(words[0])
    flipped[inp["flip"]] ^= 1
    with tr.span("encoder.verify", calls=len(words) + 1):
        verified = sum(verify_codeword(k, ell, w) for w in words)
        rejected = not verify_codeword(k, ell, flipped)
    _expect(problems, tr, "encoder.verify", "codewords verified", verified, len(words))
    _expect(problems, tr, "encoder.verify", "one-bit error rejected", rejected, True)

    members = {}
    for family, kk, ll in z["members"]:
        with tr.span("families.build"):
            members[family] = (build_a if family == "a" else build_b)(kk, ll)
    for family, fmt in inp["round_trips"]:
        m = members[family]
        with tr.span(f"formats.export.{fmt}"):
            text = export_matrix(m, fmt)
        tr.count(f"formats.bytes.{fmt}", len(text))
        _expect(problems, tr, f"formats.export.{fmt}", f"sha256 of {family}",
                sha256(text), e["exports"][f"{family}.{fmt}"])
        with tr.span(f"formats.import.{fmt}"):
            back = import_matrix(text, fmt)
        _expect(problems, tr, f"formats.import.{fmt}", f"{family} read back bit-exactly",
                back == m, True)


_INPUTS = {"report": _report_inputs, "certify": _certify_inputs, "codec": _codec_inputs}
_JOBS = {"report": _report_job, "certify": _certify_job, "codec": _codec_job}
