"""File formats for instances, traces, run reports and summaries.

Everything is structured text: instances and reports are compact JSON
documents with sorted keys, traces and per-cycle series are JSON lines,
tabular summaries are CSV with a fixed, documented header.  Serialization
is canonical, so identical data yields byte-identical files; writes go
through a temp file and an atomic rename, and a failed write removes its
temp file.  Only :func:`sha256_file`, which ``rotagap generate`` alone
calls, imports ``hashlib``: it loads OpenSSL, which a run never uses.
"""

import contextlib
import csv
import io
import json
import math
import os
from typing import Iterable, get_args, get_origin

from .domain import AgentSpec, Instance, ScenarioTrace, TaskSpec
from .strategies import StrategyConfig

# the summary's columns in order, and the type each cell must parse as
SUMMARY_COLUMNS = {
    "scenario": str, "strategy": str, "seed": int, "total_profit": int,
    "profit_pct_of_fop": float, "full_rotations": int,
    "avg_rotations_per_task": float, "cycles": int, "budget_mode": str,
}

REPORT_SCHEMA = "rotagap.report.v2"


def dump_json(obj) -> str:
    """One JSON document on one line, keys sorted.  Without ``indent``,
    ``json.dumps`` uses its C encoder."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _temp_name(path: str) -> str:
    """The name :func:`atomic_write_text` writes ``path``'s text to first.
    A pid has at most 7 digits (Linux allows up to 2**22), so the name is
    as long in every process."""
    return f"{path}.tmp{os.getpid():07d}"


def atomic_write_text(path: str, text: str) -> None:
    tmp = _temp_name(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def sha256_file(path: str) -> str:
    import hashlib  # here, so that only ``rotagap generate`` loads OpenSSL
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _compact_map(mapping: dict[str, int]) -> int | dict[str, int]:
    """Agent-independent values serialize as a bare int."""
    values = set(mapping.values())
    if len(values) == 1:
        return next(iter(values))
    return dict(sorted(mapping.items()))


def _field(record, key: str, where: str):
    """``record[key]`` of a JSON record; a ``ValueError`` that names the
    record (``where``) and the field when ``record`` is not an object or
    has no such field."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected an object, "
                         f"got {type(record).__name__}")
    if key not in record:
        raise ValueError(f"{where}: missing {key!r}")
    return record[key]


_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}
# what a list item of each type is called when it has another type
_ITEMS = {str: "a non-string id", int: "a non-integer"}


def typed(record, key: str, where: str, kind):
    """``record[key]``, which must be a JSON value of type ``kind`` itself:
    a bool, a float or a numeric string is refused, not coerced.  A float
    must be finite; an integer that a float holds exactly is read as one.
    ``list[T]`` is a list of ``T``; a range, ``tuple[int, int]``, is a list
    or tuple of two integers, returned as a tuple."""
    value = _field(record, key, where)
    if kind == tuple[int, int]:
        if type(value) in (list, tuple) and list(map(type, value)) == [int, int]:
            return tuple(value)
        raise ValueError(
            f"{where}: {key!r} is not a list of two integers: {value!r}")
    base, items = get_origin(kind) or kind, get_args(kind)
    if base is float and type(value) is int and abs(value) <= 2**53:
        value = float(value)
    if type(value) is not base or (base is float and not math.isfinite(value)):
        raise ValueError(f"{where}: {key!r} is not {_KINDS[base]}: {value!r}")
    for item in value if items else ():
        if type(item) is not items[0]:
            raise ValueError(f"{where}: {key!r} holds {_ITEMS[items[0]]}: {item!r}")
    return value


def _int64(record, key: str, where: str) -> int:
    """``record[key]``, an integer that int64 holds, as the matrices do."""
    value = typed(record, key, where, int)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{where}: {key!r} is outside int64: {value}")
    return value


def _expand_map(task: dict, key: str, compatible: Iterable[str],
                where: str) -> dict[str, int]:
    value = _field(task, key, where)
    if isinstance(value, dict):
        return {a: _int64(value, a, f"{where} {key}") for a in value}
    return dict.fromkeys(compatible, _int64(task, key, where))


def instance_to_dict(instance: Instance) -> dict:
    return {
        "agents": [{"id": a.id, "capacity": a.capacity} for a in instance.agents],
        "tasks": [
            {
                "id": t.id,
                "compatible": sorted(t.compatible),
                "weight": _compact_map(t.weights),
                "profit": _compact_map(t.profits),
            }
            for t in instance.tasks
        ],
        "metadata": instance.metadata,
    }


def instance_from_dict(data: dict) -> Instance:
    """The instance of a document written by :func:`instance_to_dict`;
    raises ``ValueError`` naming the record and field that are malformed."""
    agents = []
    for k, a in enumerate(typed(data, "agents", "instance", list)):
        where = f"instance agent {k}"
        agents.append(AgentSpec(
            id=typed(a, "id", where, str),
            capacity=_int64(a, "capacity", where)))
    tasks = []
    for k, t in enumerate(typed(data, "tasks", "instance", list)):
        where = f"instance task {k}"
        compatible = frozenset(typed(t, "compatible", where, list[str]))
        tasks.append(TaskSpec(
            id=typed(t, "id", where, str),
            compatible=compatible,
            weights=_expand_map(t, "weight", compatible, where),
            profits=_expand_map(t, "profit", compatible, where),
        ))
    metadata = typed(data, "metadata", "instance", dict) \
        if "metadata" in data else {}
    return Instance(agents=tuple(agents), tasks=tuple(tasks), metadata=metadata)


def save_instance(path: str, instance: Instance) -> None:
    atomic_write_text(path, dump_json(instance_to_dict(instance)))


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def trace_to_lines(trace: ScenarioTrace) -> str:
    """JSON lines: a header record, then one record per cycle."""
    out = io.StringIO()
    out.write(json.dumps({"cycles": trace.cycles, "seed": trace.seed},
                         sort_keys=True) + "\n")
    for k in range(1, trace.cycles + 1):
        agents, tasks = trace.entry(k)
        record = {"cycle": k, "agents": sorted(agents), "tasks": sorted(tasks)}
        out.write(json.dumps(record, sort_keys=True) + "\n")
    return out.getvalue()


def trace_from_lines(text: str) -> ScenarioTrace:
    """The trace of text written by :func:`trace_to_lines`; raises
    ``ValueError`` naming the record and field that are malformed."""
    lines = []
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                lines.append(json.loads(line))
            except ValueError as exc:  # its position is within the line
                raise ValueError(f"trace line {number}: {exc}") from None
    if not lines:
        raise ValueError("empty trace file")
    header, records = lines[0], lines[1:]
    cycles = typed(header, "cycles", "trace header", int)
    seed = typed(header, "seed", "trace header", int)
    if len(records) != cycles:
        raise ValueError(f"trace header says {cycles} cycles, found {len(records)}")
    agents = []
    tasks = []
    for expected, record in enumerate(records, start=1):
        where = f"trace cycle {expected}"
        cycle = typed(record, "cycle", where, int)
        if cycle != expected:
            raise ValueError(f"trace cycles out of order at {cycle}")
        agents.append(typed(record, "agents", where, list[str]))
        tasks.append(typed(record, "tasks", where, list[str]))
    return ScenarioTrace(cycles=cycles, available_agents=agents,
                         available_tasks=tasks, seed=seed)


def save_trace(path: str, trace: ScenarioTrace) -> None:
    atomic_write_text(path, trace_to_lines(trace))


def load_trace(path: str) -> ScenarioTrace:
    with open(path, encoding="utf-8") as fh:
        return trace_from_lines(fh.read())


def scenario_label(metadata: dict, agents: int, tasks: int) -> str:
    """The scenario part of output file names, from an instance's metadata
    and size; ``ValueError`` when the metadata cannot give one."""
    label = f"{metadata.get('generator', 'custom')}-{agents}x{tasks}"
    params = typed(metadata, "params", "metadata", dict) \
        if "params" in metadata else {}
    correlation = params.get("correlation")
    if correlation:
        label += f"-{correlation}"
    return label


def output_names(scenario: str, seed: int,
                 strategy: str | None = None) -> tuple[str, str, str]:
    """The stem of one seed's output and the names of its two files: a
    generated scenario's instance and trace or, given a strategy's file
    label, that job's report and per-cycle series."""
    if strategy is None:
        stem = f"{scenario}-seed{seed}"
        return stem, f"{stem}.instance.json", f"{stem}.trace.jsonl"
    stem = f"{scenario}-{strategy}-seed{seed}"
    return stem, f"{stem}.report.json", f"{stem}.cycles.jsonl"


def check_output_names(directory: str, scenario: str, seeds: Iterable[int],
                       strategies: Iterable[str | None] = (None,)) -> None:
    """Refuse, with a ``ValueError`` naming the label and seed, the
    :func:`output_names` that ``directory`` cannot hold: a label holding
    ``/`` or NUL, or a name whose temporary form is longer than the
    ``PC_NAME_MAX`` bytes of the directory's nearest existing ancestor
    (255 where that cannot be read)."""
    if "/" in scenario or "\0" in scenario:
        raise ValueError(f"metadata gives the scenario label {scenario!r}, "
                         f"which cannot be part of a file name")
    path = os.path.abspath(directory)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    try:
        limit = os.pathconf(path, "PC_NAME_MAX")  # -1: no limit
    except (OSError, ValueError):
        limit = 255
    for seed in seeds:
        for strategy in strategies:
            for name in output_names(scenario, seed, strategy)[1:]:
                if 0 < limit < len(os.fsencode(_temp_name(name))):
                    raise ValueError(
                        f"the scenario label {scenario!r} with seed {seed} "
                        f"gives the file name {name!r}, longer than the "
                        f"{limit} bytes that {directory} allows")


def run_report_to_dict(report, *, scenario: str, seed: int, budget_mode: str,
                       config: dict) -> dict:
    """Summary document for one run; the per-cycle series goes to a separate
    JSON-lines file.  The strategy is its config's fields and its label."""
    strategy: StrategyConfig = report.strategy
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario,
        "strategy": {**vars(strategy), "label": strategy.label},
        "seed": seed,
        "budget_mode": budget_mode,
        "cycles": len(report.per_cycle),
        "total_profit": report.total_profit,
        "full_rotations": report.full_rotations,
        "avg_rotations_per_task": report.avg_rotations_per_task,
        "final_counts": report.final_counts.tolist(),
        "provenance": report.provenance,
        "config": config,
    }


def report_json(doc: dict) -> str:
    """``dump_json(doc)`` for a :func:`run_report_to_dict` document, byte
    for byte, with ``final_counts`` encoded one row at a time.  json's C
    encoder holds one string per number until it joins them: about 1 MB at
    once for the 15,000 counts of a 20 x 750 run, against a 46 KB report."""
    def text(key, value):
        if key == "final_counts":
            return "[" + ", ".join(map(json.dumps, value)) + "]"
        return json.dumps(value, sort_keys=True)
    return "{" + ", ".join(f"{json.dumps(k)}: {text(k, v)}"
                           for k, v in sorted(doc.items())) + "}\n"


def cycle_lines(report) -> str:
    """One JSON line per cycle, holding its ``CycleReport``'s fields."""
    return "".join(json.dumps(vars(c), sort_keys=True) + "\n"
                   for c in report.per_cycle)


def csv_text(rows: Iterable[list]) -> str:
    """CSV lines, each cell quoted only where it must be."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def summary_csv(rows: list[dict]) -> str:
    return csv_text([list(SUMMARY_COLUMNS),
                     *([row[k] for k in SUMMARY_COLUMNS] for row in rows)])


def read_summary(path: str) -> list[dict]:
    """Read a summary CSV, enforcing the documented columns and that every
    cell is present and reads as its column's type (a number must be
    finite); the cells are kept as the text read."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(SUMMARY_COLUMNS):
            raise ValueError(
                f"{path}: unexpected summary columns {reader.fieldnames}")
        rows = []
        for row in reader:
            for column, kind in SUMMARY_COLUMNS.items():
                try:  # a short row's missing cells read as None
                    value = kind(row[column])
                    if row[column] is None or value != value \
                            or value in (math.inf, -math.inf):
                        raise ValueError
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: {column!r} is not "
                        f"{_KINDS[kind]}: {row[column]!r}") from None
            rows.append(row)
        return rows
