#!/bin/sh
# Fail when a `val` declared in a lib/**/*.mli is named in no OCaml source
# outside its own .ml/.mli: nothing else reaches it, so it should not be
# exported. The scan is by name (`grep -w` over lib bin bench perfbench
# test examples), so a same-named identifier anywhere else counts as a use.
# Usage: check_exports.sh ROOT   (ROOT holds the directories above)
cd "$1" || exit 1
# Exports kept on purpose, as "lib/dir/module.mli:name" words.
allow=''
srcs=$(find lib bin bench perfbench test examples -name '.*' -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print)
status=0
for mli in $(find lib -name '.*' -prune -o -name '*.mli' -print); do
  own=${mli%.mli}
  others=$(printf '%s\n' $srcs | grep -v -x -e "$own.ml" -e "$own.mli")
  for v in $(sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    case " $allow " in *" $mli:$v "*) continue ;; esac
    if ! grep -qw -- "$v" $others; then
      echo "check_exports: $mli: val $v is named nowhere outside $own.ml/.mli" >&2
      status=1
    fi
  done
done
exit $status
