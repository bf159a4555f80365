"""JSON Schemas of the CLI's --json payloads.

Each payload schema, and the polynomial and operator schemas of their
"result" objects, describes what a command writes to stdout. They are data,
not a runtime dependency: the tests and the cli benchmark check the emitted
JSON against them with a validator. Keep them in sync with cli.py and the
to_json methods they describe.
"""

_SCALAR_TEXT = {"type": "string", "minLength": 1}
_COEFF = {
    "oneOf": [
        _SCALAR_TEXT,
        {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    ]
}
_EXP = {"type": "array", "items": {"type": "integer", "minimum": 0}}

POLYNOMIAL_SCHEMA = {
    "type": "object",
    "properties": {
        "generators": {
            "type": "array", "items": {"type": "string"}, "minItems": 1,
        },
        "scalar_domain": {"enum": ["formal", "numeric"]},
        "truncation": {"type": "integer", "minimum": 0},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {"exp": _EXP, "coeff": _COEFF},
                "required": ["exp", "coeff"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["generators", "scalar_domain", "terms"],
    "additionalProperties": False,
}

OPERATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "generators": {
            "type": "array", "items": {"type": "string"}, "minItems": 1,
        },
        "scalar_domain": {"enum": ["formal", "numeric"]},
        "truncation": {"type": "integer", "minimum": 0},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "coef_exp": _EXP,
                    "deriv_exp": _EXP,
                    "coeff": _COEFF,
                },
                "required": ["coef_exp", "deriv_exp", "coeff"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["generators", "scalar_domain", "terms"],
    "additionalProperties": False,
}

POLY_PAYLOAD_SCHEMA = {
    "type": "object",
    "properties": {
        "result": POLYNOMIAL_SCHEMA,
        "text": {"type": "string"},
    },
    "required": ["result", "text"],
    "additionalProperties": False,
}

OPERATOR_PAYLOAD_SCHEMA = {
    "type": "object",
    "properties": {
        "result": OPERATOR_SCHEMA,
        "text": {"type": "string"},
    },
    "required": ["result", "text"],
    "additionalProperties": False,
}

BCH_PAYLOAD_SCHEMA = {
    "type": "object",
    "properties": {
        "algebra": {"type": "array", "items": {"type": "string"}},
        "order": {"type": "integer", "minimum": 0},
        "components": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "order": {"type": "integer", "minimum": 1},
                    "coeffs": {"type": "array", "items": _SCALAR_TEXT},
                },
                "required": ["order", "coeffs"],
                "additionalProperties": False,
            },
        },
        "text": {"type": "string"},
    },
    "required": ["algebra", "order", "components", "text"],
    "additionalProperties": False,
}

SEMINORM_PAYLOAD_SCHEMA = {
    "type": "object",
    "properties": {
        "value": {"type": "number"},
        "R": {"type": "number"},
        "weights": {"type": "array", "items": {"type": "number"}},
        "hbar": {"type": "number"},
    },
    "required": ["value", "R", "weights", "hbar"],
    "additionalProperties": False,
}

CONVERGENCE_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "check": {"const": "exponential_convergence"},
        "R": {"type": "number"},
        "x": {"type": "number"},
        "kmax": {"type": "integer"},
        "verdict": {"enum": ["convergent", "divergent"]},
        "reason": {"type": "string"},
        "limit": {"type": ["number", "null"]},
        "tail": {"type": ["number", "null"]},
        "partial_sums": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["check", "verdict", "reason", "partial_sums"],
    "additionalProperties": False,
}

WEYLREL_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "check": {"const": "weyl_relation"},
        "window": {
            "type": "object",
            "properties": {
                "degree": {"type": "integer"},
                "orders": {"type": "integer"},
            },
            "required": ["degree", "orders"],
            "additionalProperties": False,
        },
        "defect_max": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
    },
    "required": ["check", "window", "defect_max", "status"],
    "additionalProperties": False,
}

VERIFY_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "status": {"enum": ["pass", "fail"]},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "number": {"type": "integer"},
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "detail": {"type": "string"},
                },
                "required": ["number", "name", "status", "detail"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["suite", "seed", "status", "results"],
    "additionalProperties": False,
}
