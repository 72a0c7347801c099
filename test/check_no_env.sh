#!/bin/sh
# Fail when an OCaml source under lib/ reads the environment: libraries
# take every setting as an argument, and only the drivers (bin/, bench/)
# read environment variables.
# Usage: check_no_env.sh ROOT   (ROOT holds lib/)
cd "$1" || exit 1
if grep -rn -E '\<(Sys|Unix)\.(getenv|getenv_opt|unsafe_getenv|environment)\>' \
  --include='*.ml' --include='*.mli' lib; then
  echo "check_no_env: lib/ reads the environment (lines above)" >&2
  exit 1
fi
