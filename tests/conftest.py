"""Helpers shared by the test modules."""

import json


def strict_json(text: str):
    """Parse JSON as the standard defines it: NaN and Infinity are refused."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)
