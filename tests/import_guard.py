"""Importing the command line must not load the modules behind dataclasses.

    python tests/import_guard.py    # exit 1 naming each module it loaded

It checks whichever ``ttsupport`` the interpreter finds: the installed
package, or ``src/`` when that is on PYTHONPATH, and prints which one.  It
must run in a fresh interpreter, since pytest itself loads these modules.
The script needs only the standard library.
"""

import sys

HEAVY = ("dataclasses", "inspect", "ast", "dis")


def main() -> int:
    before = set(sys.modules)
    import ttsupport.cli

    loaded = [name for name in HEAVY if name in sys.modules and name not in before]
    where = ttsupport.cli.__file__
    if loaded:
        print(f"import ttsupport.cli ({where}) loaded {', '.join(loaded)}", file=sys.stderr)
        return 1
    print(f"import ttsupport.cli ({where}) loaded none of {', '.join(HEAVY)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
