"""The JSON emitter of every command: sorted keys, one-space indent, so the
output is byte-deterministic.  The document schemas are in schema, which
only dump and reduce load.
"""

import json


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)
