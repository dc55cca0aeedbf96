"""Command-line front end.

Subcommands: validate, reduce, dft, qft-sim, sample, selftest.
Exit codes: 0 success; 1 usage, I/O or parameter error (an unreadable input,
an unwritable ``--out``, a bad sampler config, a size guard); 2 invalid SysNF
input; 3 a failed check in qft-sim or selftest.

The subcommands call the library and let its exceptions rise; ``main`` is the
one place that maps them to exit codes.  Every failure prints one line:
``error: ...`` on stderr for exit 1, ``INVALID SysNF input: ...`` on stdout
for exit 2.  Any other exception is a bug and propagates with its traceback.

All randomness flows from a single 64-bit seed through numpy's default
PCG64 generator, so runs are reproducible bit for bit; summary documents
embed a hash of the effective configuration together with that seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .errors import ConditionError, LatdftError, StructureError


def _config_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _config_int(config: dict, key: str) -> int:
    """config[key] if it is a JSON integer; ValueError for anything else, 1.5 and "7" included."""
    value = config[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _rational(text: str, name: str) -> Fraction:
    """Fraction(text); ValueError naming the option or key ``name`` and the text given."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be an exact rational such as 1/16, got {text!r}") from None


def _read_matrix(path: str):
    from .intlat import parse_matrix_text

    return parse_matrix_text(Path(path).read_text())


def cmd_validate(args) -> int:
    from .sysnf import validate

    basis = validate(_read_matrix(args.input))
    print("VALID SysNF basis")
    print(f"N = {basis.N}")
    print(f"b = {list(basis.b)}")
    print(f"gcd(sum(b^2)+1, N) = gcd({basis.condition_sum}, {basis.N}) = {basis.condition_gcd}")
    return 0


def _ceil_sci(x: Fraction) -> str:
    """x > 0 rounded up to four significant digits, written as ``format(x, ".3e")`` writes a float."""
    k = len(str(x.numerator)) - len(str(x.denominator))  # 10^(k-1) < x < 10^(k+1)
    if x < Fraction(10) ** k:
        k -= 1
    digits = math.ceil(x / Fraction(10) ** (k - 3))  # in [1000, 10000]
    if digits == 10**4:
        digits, k = 10**3, k + 1
    return f"{digits // 1000}.{digits % 1000:03d}e{k:+03d}"


def cmd_reduce(args) -> int:
    from .intlat import sqrt_upper_bound
    from .sysnf import reduce_to_sysnf

    m = _read_matrix(args.input)
    epsilon = _rational(args.epsilon, "--epsilon")
    cert = reduce_to_sysnf(m, epsilon)
    # The exact largest ||sigma(v) - T v||^2 / (T^2 ||v||^2) over the integer
    # basis columns v, which is positive because delta >= 1; its square root
    # is bounded above once and rounded up.
    t = cert.T
    worst = max(
        Fraction(sum((w - t * x) ** 2 for w, x in zip(cert.apply_sigma(v), v)), t * t * sum(x * x for x in v))
        for v in zip(*m.integer_form()[1])
    )
    out = Path(args.out) if args.out else Path("certificate.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(cert.to_json())
    print(f"T = {cert.T}")
    print(f"delta = {cert.delta}")
    print(f"N = {cert.basis.N}")
    print(f"max relative error over basis vectors <= {_ceil_sci(sqrt_upper_bound(worst))} (epsilon = {epsilon})")
    print(f"certificate written to {out}")
    return 0


def _load_transform(args):
    """(basis, dense DFT, output directory) for a SysNF input file."""
    from .dft import dft_matrix
    from .sysnf import validate

    basis = validate(_read_matrix(args.input))
    return basis, dft_matrix(basis), Path(args.out or ".")


def cmd_dft(args) -> int:
    import numpy as np

    from .dft import export_character_matrix_csv

    _, cm, outdir = _load_transform(args)
    outdir.mkdir(parents=True, exist_ok=True)
    export_character_matrix_csv(cm, outdir / "dft_matrix.csv", outdir / "dft_header.json")
    dev = float(np.abs(cm.matrix.conj().T @ cm.matrix - np.eye(cm.order)).max())
    print(f"order = {cm.order}")
    print(f"unitarity deviation = {dev:.3e}")
    print(f"matrix written to {outdir / 'dft_matrix.csv'}")
    return 0


def cmd_qft_sim(args) -> int:
    from .qcirc import basis_state, circuit_steps, dense_deviation, save_snapshot
    from .sysnf import ln_membership

    basis, cm, outdir = _load_transform(args)
    # The check comes first: its statevector guard bounds the snapshots too.
    worst = dense_deviation(basis, cm.matrix)
    steps = ()
    if args.dump_state:
        coords = tuple(int(t) % basis.N for t in args.dump_state.split(","))
        if not ln_membership(basis, coords):
            raise ValueError(f"--dump-state {coords} is not a point of L_N")
        steps = circuit_steps(basis, basis_state(basis.N, basis.n, coords))
    outdir.mkdir(parents=True, exist_ok=True)
    for name, psi in steps:
        save_snapshot(psi, outdir / name)
    report = {
        "N": basis.N,
        "n": basis.n,
        "b": list(basis.b),
        "basis_states_checked": cm.order,
        "max_amplitude_deviation": worst,
        "tolerance": 1e-10,
        "agrees": worst <= 1e-10,
    }
    (outdir / "qft_sim_report.json").write_text(json.dumps(report, indent=2))
    print(f"max amplitude deviation vs dense transform = {worst:.3e}")
    print(f"report written to {outdir / 'qft_sim_report.json'}")
    return 0 if worst <= 1e-10 else 3


def cmd_sample(args) -> int:
    from .sampler import sample_gaussian

    try:
        config = json.loads(Path(args.config).read_text())
        m = _read_matrix(config["basis"])
        spec_cfg = config["spec"]
        epsilon = _rational(str(config["epsilon"]), "epsilon")
        shots = _config_int(config, "shots")
        seed = _config_int(config, "seed")
        if spec_cfg.get("kind") != "gaussian":
            raise ValueError(f"unsupported spec kind {spec_cfg.get('kind')!r}")
        extra = sorted(set(spec_cfg) - {"kind", "s"})
        if extra:
            raise ValueError(f"unknown spec keys {extra}; a spec takes kind and s only")
        s_target = spec_cfg["s"]
        if type(s_target) not in (int, float):
            raise ValueError(f"s must be a number, got {s_target!r}")
        s_target = float(s_target)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"bad config: {exc}") from exc

    result, tv, disp = sample_gaussian(m, s_target, epsilon, shots=shots, seed=seed)

    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    samples_path = outdir / "samples.csv"
    with open(samples_path, "w") as fh:
        for row in result.samples:
            fh.write(",".join(str(c) for c in row) + "\n")
    report = {
        "config_hash": _config_hash(config),
        "seed": seed,
        "tv_distance": tv,
        "max_displacement": disp,
        "decode_mismatch_rate": result.decode_mismatch_rate,
        "ancilla_residual": result.ancilla_residual,
        "norm_defect": result.norm_defect,
        "sigma_inverse_applied": True,
        "reduced_modulus": result.certificate.basis.N,
        "scale_T": result.certificate.T,
        "shots": shots,
    }
    (outdir / "sample_report.json").write_text(json.dumps(report, indent=2))
    print(f"samples written to {samples_path}")
    print(f"tv_distance = {tv:.6f}, max_displacement = {disp}")
    print(f"report written to {outdir / 'sample_report.json'}")
    return 0


def cmd_selftest(args) -> int:
    from . import acceptance

    results = []
    for criterion in acceptance.ALL_CRITERIA:
        results.append(criterion.run())
        print(results[-1].line())
    config = {"seed": acceptance.SEED, "suite": "acceptance", "criteria": len(results)}
    summary = {
        "config_hash": _config_hash(config),
        "seed": acceptance.SEED,
        "criteria": [{**dataclasses.asdict(r), "seconds": round(r.seconds, 3)} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "selftest_summary.json").write_text(json.dumps(summary, indent=2))
    print(f"summary written to {outdir / 'selftest_summary.json'}")
    return 0 if summary["all_passed"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdft",
        description="Exact-arithmetic lattice toolkit: SysNF reduction, lattice DFT, "
        "circuit simulation, and PAC sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a matrix file for SysNF validity")
    p.add_argument("--input", required=True, help="matrix file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("reduce", help="reduce an integer basis to a nearby SysNF lattice")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--epsilon", required=True, help="exact rational tolerance, e.g. 1/16")
    p.add_argument("--out", help="certificate output path (default certificate.json)")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("dft", help="build and export the dense lattice DFT matrix")
    p.add_argument("--input", required=True, help="SysNF matrix file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_dft)

    p = sub.add_parser("qft-sim", help="simulate the circuit and compare to the dense transform")
    p.add_argument("--input", required=True, help="SysNF matrix file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--dump-state", help="comma-separated basis state to snapshot after each step")
    p.set_defaults(fn=cmd_qft_sim)

    p = sub.add_parser("sample", help="run the lattice sampler from a JSON config")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (StructureError, ConditionError) as exc:
        print(f"INVALID SysNF input: {exc}")
        return 2
    except (LatdftError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
