"""Published JSON schemas for the machine-readable artifacts."""

_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}

_INTEGER = {"type": "string", "pattern": r"^-?\d+$"}

_POLYNOMIAL = {"type": "array", "items": _INTEGER}

_INTERVAL = {
    "type": "object",
    "required": ["lo", "hi", "closed_lo", "closed_hi"],
    "additionalProperties": False,
    "properties": {
        "lo": _RATIONAL,
        "hi": _RATIONAL,
        "closed_lo": {"type": "boolean"},
        "closed_hi": {"type": "boolean"},
    },
}

SIGN_CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["verdict", "interval"],
    "additionalProperties": False,
    "properties": {
        "verdict": {
            "enum": [
                "positive",
                "nonnegative-with-interior-zeros",
                "identically-zero",
                "changes-sign",
                "negative",
            ]
        },
        "interval": _INTERVAL,
        "witness": _INTERVAL,
    },
}

ONSET_CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": [
        "graph",
        "states",
        "matrix_step",
        "onset",
        "step_certificates",
        "matrix_orbits",
        "matrix_certificates",
        "coordinate_convention",
    ],
    "additionalProperties": False,
    "properties": {
        "graph": {"type": "string"},
        "states": {"type": "array", "items": {"type": "string"}},
        "matrix_step": {"type": "integer", "minimum": 0},
        "onset": {"type": "integer", "minimum": 0},
        "step_certificates": {
            "type": "array",
            "items": {"type": "array", "items": SIGN_CERTIFICATE_SCHEMA},
        },
        "matrix_orbits": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "matrix_certificates": {
            "type": "array",
            "items": {"type": "array", "items": SIGN_CERTIFICATE_SCHEMA},
        },
        "coordinate_convention": {"type": "string"},
    },
}

CONJECTURE_CERTIFICATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "graph",
        "verdict",
        "onset_certificate",
        "vertices",
        "connection_certificates",
    ],
    "additionalProperties": False,
    "properties": {
        "graph": {"type": "string"},
        "verdict": {"enum": ["proven", "counterexample", "inconclusive"]},
        "onset_certificate": {
            "oneOf": [{"type": "null"}, ONSET_CERTIFICATE_SCHEMA]
        },
        "vertices": {"type": "array", "items": {"type": "integer"}},
        "connection_certificates": {
            "type": "array",
            "items": {"type": "array", "items": SIGN_CERTIFICATE_SCHEMA},
        },
        "witness": {"type": "object"},
    },
}

MATRIX_SCHEMA = {
    "type": "object",
    "required": ["states", "entries"],
    "additionalProperties": False,
    "properties": {
        "states": {"type": "array", "items": {"type": "string"}},
        "entries": {
            "type": "array",
            "items": {"type": "array", "items": _POLYNOMIAL},
        },
    },
}

VECTOR_SCHEMA = {
    "type": "object",
    "required": ["states", "c_p", "entries"],
    "additionalProperties": False,
    "properties": {
        "states": {"type": "array", "items": {"type": "string"}},
        "c_p": _POLYNOMIAL,
        "entries": {"type": "array", "items": _POLYNOMIAL},
    },
}
