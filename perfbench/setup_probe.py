"""Set-up as a fresh process pays it: import the package and build instances.

Reads a JSON list of [p, q, e] triples on stdin and prints how many
instances it built.  perfbench/run.py times this script from the outside,
so interpreter start is included.
"""

import json
import sys

import rsa_fixpoints.cli as cli

cli.build_parser()
triples = json.load(sys.stdin)
built = [cli.census.make_instance(p, q, e) for p, q, e in triples]
print(len(built))
