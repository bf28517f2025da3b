"""The benchmark's workloads: which CLI invocations each one runs.

Every job is one ``python -m sectorkit ...`` invocation. ``{seed}`` is the
benchmark's seed argument, passed to the CLI as ``--seed`` and nowhere
else; ``{out}`` is the directory that receives ``--out`` files. Core jobs
are timed. Stretch jobs lie past today's frontier: they run once per run
and count only towards the solved-job count, never towards wall time or
peak RSS, so a change that makes one pass is not charged for its time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload."""

    name: str
    template: str  # CLI arguments after ``python -m sectorkit``
    stretch: bool = False

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        return [part.format(seed=seed, out=out_dir) for part in self.template.split()]

    def out_file(self, seed: int, out_dir: str) -> str | None:
        """Path named by ``--out``, or None when the job writes to stdout."""
        args = self.cli_args(seed, out_dir)
        return args[args.index("--out") + 1] if "--out" in args else None


def _sectors(m: int, n: int, stretch: bool = False) -> Job:
    return Job(f"sectors-m{m}-N{n}", f"sectors --m {m} --N {n} --seed {{seed}}", stretch)


def _cover(q: int, n: int, stretch: bool = False) -> Job:
    return Job(f"cover-q{q}-N{n}", f"cover --q-size {q} --N {n} --seed {{seed}}", stretch)


# The 17 invocations of scripts/reproduce.sh, with the same arguments.
_REPRODUCE = [
    ("tableaux_N6.json", "tableaux --N 6 --seed {seed} --out {out}/tableaux_N6.json"),
    ("tableaux_N5.csv", "tableaux --N 5 --seed {seed} --format csv --out {out}/tableaux_N5.csv"),
    ("sectors_m2_N2.json", "sectors --m 2 --N 2 --seed {seed} --out {out}/sectors_m2_N2.json"),
    ("sectors_m2_N3.json", "sectors --m 2 --N 3 --seed {seed} --out {out}/sectors_m2_N3.json"),
    ("sectors_m3_N3.json", "sectors --m 3 --N 3 --seed {seed} --out {out}/sectors_m3_N3.json"),
    ("sectors_m3_N4.json", "sectors --m 3 --N 4 --seed {seed} --out {out}/sectors_m3_N4.json"),
    ("equiv_m2_N2.json", "equiv --m 2 --N 2 --seed {seed} --out {out}/equiv_m2_N2.json"),
    ("equiv_m3_N2.json", "equiv --m 3 --N 2 --seed {seed} --out {out}/equiv_m3_N2.json"),
    ("equiv_m2_N3.json", "equiv --m 2 --N 3 --seed {seed} --out {out}/equiv_m2_N3.json"),
    ("equiv_m3_N3.json", "equiv --m 3 --N 3 --seed {seed} --out {out}/equiv_m3_N3.json"),
    ("cover_q3_N2.json", "cover --q-size 3 --N 2 --seed {seed} --out {out}/cover_q3_N2.json"),
    ("cover_q4_N2.json", "cover --q-size 4 --N 2 --seed {seed} --out {out}/cover_q4_N2.json"),
    ("cover_q4_N3.json", "cover --q-size 4 --N 3 --seed {seed} --out {out}/cover_q4_N3.json"),
    ("circle_theta0.json", "circle --theta 0 --grid 128 --seed {seed} --out {out}/circle_theta0.json"),
    (
        "circle_quarter.json",
        "circle --theta 1.5707963267948966 --grid 128 --seed {seed} --out {out}/circle_quarter.json",
    ),
    (
        "circle_half.json",
        "circle --theta 3.141592653589793 --grid 128 --seed {seed} --out {out}/circle_half.json",
    ),
    (
        "circle_theta3.csv",
        "circle --theta 3 --grid 128 --seed {seed} --format csv --out {out}/circle_theta3.csv",
    ),
]

WORKLOADS: dict[str, list[Job]] = {
    # What users run: start-up and rendering dominate, every compute layer
    # has a small share. The only place equiv N=3 and circle are measured.
    "reproduce": [Job(name.replace(".", "-"), template) for name, template in _REPRODUCE],
    # Operator picture: permgroup and tensor_rep do the work. Growing N at
    # small m is bound by the N!-term central projectors, growing m at
    # small N by the dense commutant.
    "operator": [
        _sectors(3, 4),
        _sectors(4, 4),
        _sectors(2, 6),
        _sectors(3, 5),
        _sectors(2, 7),
        _sectors(5, 4, stretch=True),
        _sectors(4, 5, stretch=True),
    ],
    # Covering-space picture: linalg SVDs and cover_quant do the work;
    # (4, 3) is the only core cover with a non-abelian deck group.
    "census": [
        _cover(3, 2),
        _cover(4, 2),
        _cover(4, 3),
        _cover(5, 2),
        _cover(6, 2),
        _cover(5, 3, stretch=True),
        _cover(8, 2, stretch=True),
        Job("equiv-m4-N3", "equiv --m 4 --N 3 --seed {seed}", stretch=True),
    ],
}

# A fresh process that does no compute: interpreter start, imports and
# argument parsing, which every job pays.
SETUP_JOB = Job("setup", "tableaux --N 1 --seed {seed}")
