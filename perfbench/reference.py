"""Reference optima for the contact workloads, computed ahead of time.

The contact ILP takes seconds on two rows of 100, so the optima of the
``sweep-2layer`` and ``exact-klayer`` pools are kept in ``reference.json``
next to a digest of each instance.  Rebuild the cache after a change to the
pools or to the program's generator, from the repository root:

    python3 perfbench/reference.py

The benchmark refuses a cache whose digests do not match the instances it
generated.  Two-layer instances above ``ILP_VERTEX_LIMIT`` vertices get no
optimum; their answers are checked for validity and count only.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / "reference.json"
CACHED = ("sweep-2layer", "exact-klayer")
ILP_VERTEX_LIMIT = 200


class StaleCache(LookupError):
    """The cache has no entry, or a different instance, for a pool entry."""


def load(workload: str) -> dict[str, dict]:
    """ident -> {"digest", "optimum"} for one cached workload."""
    try:
        data = json.loads(CACHE.read_text(encoding="utf-8"))
        return data[workload]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise StaleCache(f"no usable reference cache for {workload}: {exc}") from exc


def lookup(optima: dict[str, dict], workload: str, ident: str, digest: str) -> int | None:
    entry = optima.get(ident)
    if entry is None or entry["digest"] != digest:
        raise StaleCache(
            f"{workload}/{ident} does not match reference.json; "
            "rebuild it with python3 perfbench/reference.py"
        )
    return entry["optimum"]


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import checker
    import workloads

    build_dir = HERE / "out" / "reference-build"
    shutil.rmtree(build_dir, ignore_errors=True)
    cache: dict[str, dict] = {}
    for workload in CACHED:
        entries = {}
        for path in workloads.write_pool(workload, build_dir / workload):
            inst = checker.read_instance(path)
            optimum = None
            started = time.perf_counter()
            if len(inst.vertices) <= ILP_VERTEX_LIMIT:
                optimum = checker.max_contacts_ilp(inst)
            print(f"{workload}/{path.stem}: {len(inst.vertices)} vertices, optimum "
                  f"{optimum} ({time.perf_counter() - started:.2f} s)", flush=True)
            entries[path.stem] = {"digest": inst.digest(), "optimum": optimum}
        cache[workload] = entries
    CACHE.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(build_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
