"""The benchmark's workloads: which `wwm` CLI jobs each one runs.

Why each workload was chosen is recorded in BENCHMARK.json.  A job is
one `python -m wwm.cli <command> ...` invocation.  Generated inputs (the
n = 16384 copies of the grid configs: same box, only `n` changed) are
written as config files into a scratch directory, so the program only
ever sees config files.
"""

import os
import re
from dataclasses import dataclass

GRID_CONFIGS = ("sign", "kick_pair", "phase_ramp", "sew_flat")
NARROW_CONFIG = "sign_narrow"
LARGE_N = 16384
CHI_COMMANDS = ("check", "pwv", "phi", "moments", "support", "audit", "momentum-dist")
MC_SHOTS = 100_000
MC_SIGMA = 10

# Per-workload remarks recorded with every result; each workload's "why"
# lives in BENCHMARK.json.
NOTES = {
    "wigner-check": "n=4096 only: at n=16384 each n x n complex array of the "
    "identity check is ~4.3 GB, more than a 7-8 GB machine holds.",
}


@dataclass(frozen=True)
class Job:
    command: str
    config: str  # label: the config's stem, with "@16384" for generated copies
    config_path: str
    out: str
    extra: tuple = ()

    @property
    def id(self):
        return f"{self.command}:{self.config}"

    @property
    def narrow(self):
        return self.config == NARROW_CONFIG

    @property
    def shots(self):
        return MC_SHOTS if self.command == "simulate" else None

    def cli_args(self):
        return (self.command, "--config", self.config_path, "--out", self.out) + self.extra


def resize_config(text, n):
    """Return config text with the [grid] section's `n` set to `n`."""
    out, section, done = [], None, False
    for line in text.splitlines():
        head = re.match(r"\s*\[(\w+)\]", line)
        if head:
            section = head.group(1)
        elif section == "grid" and re.match(r"\s*n\s*=", line):
            line, done = f"n = {n}", True
        out.append(line)
    if not done:
        raise ValueError("config has no [grid] n line")
    return "\n".join(out) + "\n"


def config_paths(root, scratch):
    """Label -> path for the shipped configs and the generated large-n copies."""
    configs = os.path.join(root, "configs")
    paths = {name: os.path.join(configs, f"{name}.cfg") for name in GRID_CONFIGS + (NARROW_CONFIG,)}
    for name in GRID_CONFIGS:
        with open(paths[name], encoding="utf-8") as fh:
            text = resize_config(fh.read(), LARGE_N)
        path = os.path.join(scratch, f"{name}_n{LARGE_N}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[f"{name}@{LARGE_N}"] = path
    return paths


def make_jobs(workload, paths, seed, out_dir):
    """The workload's job list, in the order the closed loop runs it."""
    seeded = ("--seed", str(seed))
    plan = []  # (command, config label, extra args)
    if workload == "chi-survey":
        for name in GRID_CONFIGS:
            plan += [(cmd, name, seeded if cmd == "audit" else ()) for cmd in CHI_COMMANDS]
        plan += [
            (cmd, NARROW_CONFIG, seeded if cmd == "audit" else ())
            for cmd in CHI_COMMANDS
            if cmd != "momentum-dist"
        ]
        plan += [(cmd, f"{name}@{LARGE_N}", ()) for name in GRID_CONFIGS for cmd in ("pwv", "phi")]
    elif workload == "postselect-mc":
        mc = ("--shots", str(MC_SHOTS), "--sigma", str(MC_SIGMA)) + seeded
        plan += [("simulate", name, mc) for name in GRID_CONFIGS]
        plan += [("simulate", f"{name}@{LARGE_N}", mc) for name in GRID_CONFIGS]
    elif workload == "wigner-check":
        plan += [("wigner", name, ()) for name in GRID_CONFIGS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for k, (cmd, label, extra) in enumerate(plan):
        out = os.path.join(out_dir, f"{k:02d}-{cmd}-{label.replace('@', '_n')}.csv")
        jobs.append(Job(cmd, label, paths[label], out, tuple(extra)))
    return jobs


def setup_configs(jobs):
    """Distinct config paths of a job list, in first-use order."""
    return list(dict.fromkeys(job.config_path for job in jobs))
