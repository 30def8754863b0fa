"""One cold start: import holonomy_lab and parse a run config, in this fresh process.

Usage: python3 cold_start.py SRC_DIR CONFIG_PATH
Prints {"import_s": ..., "setup_s": ...} as one JSON line.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import holonomy_lab  # noqa: E402

imported = time.perf_counter()
from holonomy_lab import config  # noqa: E402

config.build_config(config.load_config(sys.argv[2]))
done = time.perf_counter()
if not Path(holonomy_lab.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported holonomy_lab from {holonomy_lab.__file__}, not from {src}")
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
