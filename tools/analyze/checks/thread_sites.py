"""Thread-creation sanctioning and condition-variable wait hygiene.

`thread-site`: the AST-accurate replacement for lint.py's old regex rule.
All parallelism must flow through the sanctioned runtimes — the
candle::parallel worker teams, the comm rank threads, the hvd background thread,
and the batch-pipeline stage threads. Ad-hoc std::thread elsewhere
fragments the CANDLE_NUM_THREADS budget and breaks the pinned-thread
model the paper's scaling study depends on. std::async (unspecified
policy, blocking-destructor futures) and detached threads (unjoinable at
shutdown, outlive sanitizer scope) are never sanctioned.

`condvar-wait`: waits must pass a predicate; a bare wait() returns on
spurious wakeups and re-derives the predicate race-prone at every caller.
"""

from __future__ import annotations

from model import Finding, Project

#: Path prefixes where spawning threads is sanctioned.
_SANCTIONED = (
    "src/common/parallel.",      # the per-caller worker teams
    "src/comm/",                 # rank-per-thread communicator harness
    "src/hvd/",                  # background collective thread
    "src/nn/batch_pipeline.",    # pipeline stage threads
    "src/serve/",                # serving dispatcher + loadgen clients
)

#: The annotation wrapper layer forwards waits by design.
_WRAPPER_FILES = ("src/common/thread_annotations.h",)


def check_thread_sites(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for fm in project.files:
        sanctioned = any(fm.path.startswith(p) for p in _SANCTIONED)
        for site in fm.thread_sites:
            if site.kind == "async":
                findings.append(Finding(
                    "thread-site", fm.path, site.line,
                    "std::async has an unspecified launch policy and "
                    "blocking futures — submit to candle::parallel or use "
                    "an owned std::thread in a sanctioned runtime"))
            elif site.kind == "detach":
                findings.append(Finding(
                    "thread-site", fm.path, site.line,
                    "detached threads cannot be joined at shutdown and "
                    "outlive sanitizer scope — keep the std::thread owned "
                    "and join it"))
            elif not sanctioned:
                what = ("growing a std::thread container"
                        if site.kind == "emplace"
                        else f"std::{site.kind}")
                findings.append(Finding(
                    "thread-site", fm.path, site.line,
                    f"{what} outside the sanctioned runtimes "
                    f"(candle::parallel, comm, hvd, batch_pipeline) — "
                    f"use candle::parallel::parallel_for or add the "
                    f"runtime to the sanctioned list deliberately"))

        if fm.path in _WRAPPER_FILES:
            continue
        for w in fm.waits:
            if w.receiver not in fm.condvars:
                continue  # e.g. future.wait()
            needed = 2 if w.method == "wait" else 3
            if w.nargs < needed:
                findings.append(Finding(
                    "condvar-wait", fm.path, w.line,
                    f"{w.receiver}.{w.method}() without a predicate: "
                    f"spurious wakeups make the caller re-derive the "
                    f"condition — pass the predicate lambda"))
    return findings
