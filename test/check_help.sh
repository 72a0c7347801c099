#!/bin/sh
# Render `--help=plain` for pipesyn and for every subcommand it lists, and
# fail if any page reports a cmdliner markup error (a bad escape in a
# doc string prints "cmdliner error: ..." in place of the option's text).
# Usage: check_help.sh PIPESYN_EXE
exe=$1
cmds=$("$exe" --help=plain | sed -n '/^COMMANDS$/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p')
if [ -z "$cmds" ]; then
  echo "check_help: no subcommands found in '$exe --help=plain'" >&2
  exit 1
fi
status=0
for cmd in "" $cmds; do
  if "$exe" $cmd --help=plain 2>&1 | grep 'cmdliner error'; then
    echo "check_help: 'pipesyn $cmd --help=plain' has markup errors" >&2
    status=1
  fi
done
exit $status
