"""Batch command-line front end.

Commands decide reachability (`reach`), repeated reachability (`buchi`), and
flat freeze LTL model checking (`mc`) on machines given as JSON files, emit
the library's constructions (`translate`), and independently re-check emitted
witnesses (`check`). Exit codes: 0 = property holds and a witness was
emitted, 1 = no witness up to the bound (the bound is echoed), 2 = bad input,
141 = the reader closed standard output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple, Optional

from flatmc import formulas, jsonio
from flatmc.formulas import FormulaError, evaluate
from flatmc.machines import (
    ClassMismatch,
    Config,
    CounterMachine,
    LassoRun,
    MachineError,
    validate_lasso,
    validate_run,
)
from flatmc.reach import (
    default_bound,
    expand_updates,
    fold_constants,
    parametric_reach,
)
from flatmc.reductions import (
    buchi_to_reach,
    lasso_word,
    model_check,
    repeated_reach,
    succinct_to_unary,
)


class InputError(Exception):
    """Raised for anything that should exit with code 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    # Nested too deeply, a number of too many digits, or not UTF-8.
    except (RecursionError, ValueError) as err:
        raise InputError(f"{path}: {err}") from err


def _load_machine(path: str) -> CounterMachine:
    try:
        return jsonio.machine_from_data(_load_json(path))
    except MachineError as err:
        raise InputError(f"{path}: {err}") from err


def _load_formula(text: str) -> formulas.Formula:
    try:
        return formulas.parse(text)
    except FormulaError as err:
        raise InputError(f"formula: {err}") from err


def _report(args, verdict: str, bound: Optional[int] = None,
            witness: Optional[dict] = None, **extra) -> None:
    if args.json:
        payload = {"verdict": verdict, **extra}
        if bound is not None:
            payload["bound"] = bound
        if witness is not None:
            payload["witness"] = witness
        print(json.dumps(payload, indent=2))
    else:
        if verdict == "absent":
            print(f"absent up to bound {bound}: no witness with parameter "
                  f"values <= {bound}")
        elif verdict == "present":
            print(f"present (bound {bound})")
        else:
            print(verdict)


def _answer(args, bound: int, witness: Optional[dict], **extra) -> int:
    """Report a solver's answer and return its exit code: absent (1) when
    there is no witness, else present (0) once the witness is written to
    --witness or, without --json, to stdout. A --witness path that cannot
    be written is bad input."""
    if witness is None:
        _report(args, "absent", bound)
        return 1
    if args.witness:
        try:
            with open(args.witness, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(witness, indent=2) + "\n")
        except OSError as err:
            raise InputError(f"cannot write {args.witness}: {err}") from err
    elif not args.json:
        print(json.dumps(witness, indent=2))
    _report(args, "present", bound, witness=witness, **extra)
    return 0


def _limit(args, flag: str) -> Optional[int]:
    value = getattr(args, flag)
    if value is not None and value < 0:
        raise InputError(f"--{flag} must be non-negative, got {value}")
    return value


def _bound(args, machine: CounterMachine) -> int:
    bound = _limit(args, "bound")
    return bound if bound is not None else default_bound(machine)


def cmd_reach(args) -> int:
    machine = _load_machine(args.machine)
    bound = _bound(args, machine)
    witness = parametric_reach(machine, args.target, bound,
                               ceiling=_limit(args, "cap"))
    if witness is None:
        return _answer(args, bound, None)
    return _answer(args, bound,
                   jsonio.witness_to_data(witness.gamma, witness.run))


def cmd_buchi(args) -> int:
    machine = _load_machine(args.machine)
    accepting = [q for q in args.accepting.split(",") if q]
    if not accepting:
        raise InputError("no accepting states given")
    bound = _bound(args, machine)
    # Only the machine's parameters are bounded by B: the stored value y
    # ranges up to the counter ceiling.
    found = repeated_reach(machine, accepting, bound,
                           ceiling=_limit(args, "cap"))
    if found is None:
        return _answer(args, bound, None)
    certificate = jsonio.witness_to_data(dict(found.certificate.gamma),
                                         found.certificate.run)
    return _answer(args, bound, jsonio.witness_to_data(
        found.gamma, found.lasso, certificate=certificate),
        accepting=found.accept_state)


def cmd_mc(args) -> int:
    machine = _load_machine(args.machine)
    phi = _load_formula(args.formula)
    bound = _bound(args, machine)
    witness = model_check(machine, phi, bound)
    if witness is None:
        return _answer(args, bound, None)
    return _answer(args, bound, jsonio.witness_to_data(
        {}, witness.lasso, formula_holds=True))


def cmd_translate(args) -> int:
    if args.target is not None and args.mode in ("unary", "foldconst"):
        raise InputError(f"--mode {args.mode} does not read --target")
    if args.formula is not None and args.mode != "unary":
        raise InputError(f"--mode {args.mode} does not read --formula")
    machine = _load_machine(args.machine)
    if args.mode == "a2a":
        if not args.target:
            raise InputError("--mode a2a needs --target")
        # Imported here: no other command needs the automaton construction.
        from flatmc.alternating import dump_a2a, machine_to_a2a
        folded, _pinned = fold_constants(machine)
        translated = machine_to_a2a(folded, args.target)
        print(dump_a2a(translated.automaton), end="")
    elif args.mode == "unary":
        phi = formulas.nnf(_load_formula(args.formula or "true"))
        reduction = succinct_to_unary(machine, phi)
        print(json.dumps({
            "machine": jsonio.machine_to_data(reduction.machine),
            "formula": formulas.render(reduction.formula),
        }, indent=2))
    elif args.mode == "buchi2reach":
        if not args.target:
            raise InputError("--mode buchi2reach needs --target")
        # Expanded as `buchi` solves it, constant tests in place.
        reduction = buchi_to_reach(expand_updates(machine)[0], args.target)
        print(json.dumps({
            "machine": jsonio.machine_to_data(reduction.machine),
            "target": reduction.target,
        }, indent=2))
    else:  # foldconst
        folded, pinned = fold_constants(machine)
        print(json.dumps({
            "machine": jsonio.machine_to_data(folded),
            "pinned": pinned,
        }, indent=2))
    return 0


def cmd_check(args) -> int:
    machine = _load_machine(args.machine)
    try:
        gamma, run = jsonio.witness_from_data(_load_json(args.witness))
    except MachineError as err:
        raise InputError(f"{args.witness}: {err}") from err
    for x in machine.params:
        if x not in gamma:
            raise InputError(f"gamma misses parameter {x!r}")
    unknown = sorted(set(gamma) - set(machine.params))
    if unknown:
        raise InputError(f"gamma names {unknown[0]!r}, which is no parameter "
                         f"of the machine")
    phi = _load_formula(args.formula) if args.formula else None

    def reject(reason: str) -> int:
        _report(args, f"invalid witness: {reason}")
        return 1

    if run.configs[0] != Config(machine.initial, 0):
        return reject("run does not start at (initial, 0)")
    is_lasso = isinstance(run, LassoRun)
    defect = (validate_lasso if is_lasso else validate_run)(machine, gamma, run)
    if defect is not None:
        return reject(f"step {defect.position}: {defect.reason}")
    if phi is not None:
        if not is_lasso:
            return reject("a formula check needs a lasso witness")
        if not evaluate(lasso_word(machine, run), 0, {}, phi):
            return reject("the spelled word does not satisfy the formula")
    _report(args, "valid")
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each command's own parser, by name, built
    on first use and reused by every later call; parsing leaves them
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="flatmc",
        description="Reachability, repeated reachability, and flat freeze "
                    "LTL model checking for one-counter machines with "
                    "parameterized tests.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name, text, handler):
        p = commands[name] = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        return p

    def common(p):
        p.add_argument("machine", help="machine JSON file")
        p.add_argument("--bound", type=int, default=None,
                       help="parameter value bound (default: derived from "
                            "the machine size)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        p.add_argument("--witness", metavar="FILE", default=None,
                       help="write the witness to FILE instead of stdout")

    def cap(p):
        p.add_argument("--cap", type=int, default=None,
                       help="counter exploration ceiling override")

    p = command("reach", "is the target state reachable?", cmd_reach)
    common(p)
    cap(p)
    p.add_argument("--target", required=True)

    p = command("buchi", "can some accepting state repeat forever?",
                cmd_buchi)
    common(p)
    cap(p)
    p.add_argument("--accepting", required=True,
                   help="comma-separated accepting states")

    p = command("mc", "does some run satisfy the flat sentence?", cmd_mc)
    common(p)
    p.add_argument("--formula", required=True, help="formula text")

    p = command("translate", "emit a construction", cmd_translate)
    p.add_argument("machine", help="machine JSON file")
    p.add_argument("--mode", required=True,
                   choices=("a2a", "unary", "buchi2reach", "foldconst"))
    p.add_argument("--target", default=None)
    p.add_argument("--formula", default=None)

    p = command("check", "re-check a witness file independently", cmd_check)
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("machine", help="machine JSON file")
    p.add_argument("formula", nargs="?", default=None,
                   help="optional formula the witness claims to satisfy")
    p.add_argument("--json", action="store_true")

    return parser, commands


class _Plain(NamedTuple):
    """What a plain command line may give one command: its flags, each with
    its store or store_true action, its positionals in order, the flags it
    requires, and the values every namespace starts from."""
    flags: dict[str, argparse.Action]
    positionals: tuple[argparse.Action, ...]
    required: frozenset[argparse.Action]
    defaults: dict[str, object]


class _Decline(Exception):
    """A command line that `_read_plain` leaves to argparse."""


@functools.cache
def _plain(command: argparse.ArgumentParser) -> Optional[_Plain]:
    """The table `_read_plain` reads `command`'s lines with, derived once
    from the parser's own actions and defaults. None, so that argparse
    parses every line of the command, if an action is other than help, a
    store action of one value or store_true, or has a string default, which
    argparse would convert."""
    flags, positionals, required = {}, [], set()
    defaults = {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        one_value = (type(action) is argparse._StoreAction
                     and action.nargs is None)
        if (not (one_value or type(action) is argparse._StoreTrueAction)
                or isinstance(action.default, str)):
            return None
        defaults.setdefault(action.dest, action.default)
        if not action.option_strings:
            positionals.append(action)
            continue
        flags.update(dict.fromkeys(action.option_strings, action))
        if action.required:
            required.add(action)
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    return _Plain(flags, tuple(positionals), frozenset(required), defaults)


def _plain_value(action: argparse.Action, token: Optional[str]):
    """The value argparse stores for `action` given `token`."""
    if token is None or token.startswith("-"):
        raise _Decline
    try:
        value = token if action.type is None else action.type(token)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise _Decline from None
    if action.choices is not None and value not in action.choices:
        raise _Decline
    return value


def _read_plain(command: argparse.ArgumentParser,
                tokens: list[str]) -> Optional[argparse.Namespace]:
    """The namespace `command` parses `tokens` into, if they form a plain
    line: exact flags, one value after each store flag, and as many
    positionals as the command has. None, and argparse parses as it always
    did, for any other line, such as one with an abbreviated flag, a
    `--flag=value`, `--`, `-h`, a value starting with `-`, a value that its
    flag's type or choices reject, or a required flag left out."""
    plain = _plain(command)
    if plain is None:
        return None
    values = dict(plain.defaults)
    given, seen = [], set()
    rest = iter(tokens)
    try:
        for token in rest:
            if not token.startswith("-"):
                given.append(token)
                continue
            action = plain.flags.get(token)
            if action is None:
                raise _Decline
            values[action.dest] = (action.const if action.nargs == 0
                                   else _plain_value(action, next(rest, None)))
            seen.add(action)
        if len(given) != len(plain.positionals) or not plain.required <= seen:
            raise _Decline
        for action, token in zip(plain.positionals, given):
            values[action.dest] = _plain_value(action, token)
    except _Decline:
        return None
    return argparse.Namespace(**values)


def _parse(argv) -> argparse.Namespace:
    """Parse the command line in one pass: a plain line is read from its
    command's table, and any other line of a command goes straight to the
    command's own parser, which the top-level parser would hand it to; what
    that parser leaves over is reported as the top-level parser reports it.
    Anything else, a missing or unknown command or a top-level flag, is the
    top-level parser's."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read_plain(command, argv[1:])
    if args is not None:
        return args
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (InputError, MachineError, ClassMismatch, FormulaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device, so the
        # interpreter's last flush stays quiet, and exit with 128 + SIGPIPE,
        # as a shell reports a writer killed by a closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
