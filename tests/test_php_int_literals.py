"""PHP integer literals: every radix and separator PHP accepts.

``int(text, 0)`` used to decode INT tokens, which rejects PHP's
leading-zero octal (``0755``): the ValueError escaped the parser, killed
a ``jobs=1`` scan outright and turned the file into a worker error with
no finding at ``jobs=2``.  The lexer also split ``0o17`` into ``0`` and
the name ``o17``.
"""

from __future__ import annotations

import pytest

from repro.analysis.options import ScanOptions
from repro.exceptions import PhpSyntaxError
from repro.php import ast, parse, parse_with_recovery, tokenize
from repro.php.tokens import TokenType
from repro.php.visitor import find_all
from repro.tool import Wape


def literal_value(text: str):
    program = parse(f"<?php $a = {text};")
    return program.body[0].expr.value.value


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("00", 0), ("42", 42), ("1_000_000", 1000000),
    ("0755", 0o755), ("07_55", 0o755), ("0o17", 15), ("0O1_7", 15),
    ("0x1F", 31), ("0X1_f", 31), ("0b101", 5), ("0B1_01", 5),
])
def test_integer_literal_values(text, value):
    assert literal_value(text) == value


@pytest.mark.parametrize("text", ["0o17", "0x1_F", "0b1_0", "07_55"])
def test_radix_literals_are_one_token(text):
    tokens = tokenize(f"<?php {text};")
    assert [(t.type, t.value) for t in tokens[1:3]] \
        == [(TokenType.INT, text), (TokenType.SEMI, ";")]


def test_invalid_octal_is_a_syntax_error():
    with pytest.raises(PhpSyntaxError, match="invalid numeric literal"):
        parse("<?php $a = 0789;")
    # recovery drops just the damaged statement
    program, warnings = parse_with_recovery("<?php $a = 08; echo 1;")
    assert len(warnings) == 1 and len(program.body) == 1


def test_break_level_literal():
    program = parse("<?php while (1) { while (1) { break 0x2; } }")
    (node,) = find_all(program, ast.Break)
    assert node.level == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_octal_mode_does_not_hide_an_injection(tmp_path, jobs):
    (tmp_path / "upload.php").write_text(
        '<?php\nchmod($f, 0755);\n'
        'mysql_query("SELECT * FROM t WHERE id=" . $_GET["id"]);\n')
    report = Wape().analyze_tree(str(tmp_path), ScanOptions(jobs=jobs))
    (entry,) = report.files
    assert entry.parse_error is None
    assert [o.vuln_class for o in entry.outcomes] == ["sqli"]
