"""Peak resident-memory growth of one deltasieve call, in a fresh process.

Reads a pickled (module, function, args, kwargs) from stdin, written by
run.py, and prints by how many MiB the call raised the process's resident
high-water mark above its level after the imports.  The mark is VmHWM of
/proc/self/status: unlike ru_maxrss it is not inherited from the parent
across fork and exec.
"""

import importlib
import pickle
import sys


def high_water_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    module, name, args, kwargs = pickle.load(sys.stdin.buffer)
    fn = getattr(importlib.import_module(module), name)
    before = high_water_kib()
    fn(*args, **kwargs)
    print((high_water_kib() - before) / 1024.0)


if __name__ == "__main__":
    main()
