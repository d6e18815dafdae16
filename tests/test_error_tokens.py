"""Every ``MatchcertError`` the package raises starts with a stable
kebab-case token, followed by ``:`` or the end of the message, so callers
and tests can match on the token alone (see ``matchcert.errors``)."""

import ast
import re
from pathlib import Path

import matchcert

SRC = Path(matchcert.__file__).parent
TOKEN = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")
# Messages built elsewhere and raised again: coverage re-raises the
# ``trial-failed:`` message of a worker's MatchcertError.
RERAISED = {("coverage.py", "failed[0]")}


def _leading_text(message: ast.expr) -> tuple[str, bool] | None:
    """The literal text a message starts with and whether that text is the
    whole message; None when it starts with a computed value."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value, True
    if isinstance(message, ast.JoinedStr) and message.values:
        first = message.values[0]
        if isinstance(first, ast.Constant):
            return first.value, len(message.values) == 1
    return None


def _error_messages():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "MatchcertError"
            ):
                yield path.name, node.lineno, node.args[0]


def _has_token(text: str, whole: bool) -> bool:
    token = TOKEN.match(text)
    if token is None:
        return False
    rest = text[token.end():]
    return rest.startswith(":") or (whole and not rest)


def test_every_error_message_starts_with_a_token():
    checked, bad = 0, []
    for name, line, message in _error_messages():
        if (name, ast.unparse(message)) in RERAISED:
            continue
        leading = _leading_text(message)
        if leading is None or not _has_token(*leading):
            bad.append(f"{name}:{line}: {ast.unparse(message)}")
        checked += 1
    assert not bad, "\n".join(bad)
    # the walk reaches every call in the text, including those whose
    # message is on the line after ``MatchcertError(``; the class statement
    # of errors.py is the one other occurrence
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.glob("*.py"))
    assert checked + len(RERAISED) == text.count("MatchcertError(") - 1


def test_token_rule():
    assert _has_token("unknown-node: 'x'", whole=False)
    assert _has_token("budget-exhausted", whole=True)
    assert not _has_token("budget-exhausted", whole=False)  # "{...}" follows
    assert not _has_token("Unknown node: 'x'", whole=True)
    assert not _has_token("unknown node: 'x'", whole=True)
    assert not _has_token("-node: 'x'", whole=True)
