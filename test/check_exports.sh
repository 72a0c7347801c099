#!/bin/sh
# Fail when a `val` declared in a lib/**/*.mli is used by no OCaml source
# outside its own .ml/.mli: nothing else reaches it, so it should not be
# exported. A value [v] of module [M] (the .mli's name, or the nested
# `module M : sig` it is declared in) counts as used in another file of
# lib bin bench perfbench test examples when that file names it `M.v`, or
# names `v` and opens or includes `M` or uses `M.( ... )`, or names `A.v`
# after `module A = M`.
# Usage: check_exports.sh ROOT   (ROOT holds the directories above)
cd "$1" || exit 1
# Exports kept on purpose, as "lib/dir/module.mli:name" words.
allow=''
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
find lib bin bench perfbench test examples -name '.*' -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print >"$tmp/srcs"
id="[A-Za-z_][A-Za-z0-9_']*"
# "file M.v" for every qualified name, "file M" for every file opening M.
xargs grep -o -H -E "\<[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" \
  <"$tmp/srcs" | sed 's/:/ /' | sort -u >"$tmp/qualified"
xargs grep -o -H -E \
  "(\<(open|include)!? +([A-Z][A-Za-z0-9_']*\.)*[A-Z][A-Za-z0-9_']*|\<[A-Z][A-Za-z0-9_']*\.\()" \
  <"$tmp/srcs" |
  sed -e 's/:/ /' -e 's/ [a-z!]* *\([A-Z][A-Za-z0-9_'"'"'.]*\)$/ \1/' \
    -e 's/ .*\.\([A-Z][A-Za-z0-9_'"'"']*\)$/ \1/' -e 's/\.($//' |
  sort -u >"$tmp/opens"
# "file M A" for every module alias `module A = M` of a file.
xargs grep -o -H -E \
  "\<module +[A-Z][A-Za-z0-9_']* *= *([A-Z][A-Za-z0-9_']*\.)*[A-Z][A-Za-z0-9_']*" \
  <"$tmp/srcs" |
  sed -e 's/:module */ /' -e 's/ *= *\([A-Z][A-Za-z0-9_'"'"']*\.\)*/ /' |
  awk '{ print $1, $3, $2 }' | sort -u >"$tmp/aliases"
# "file v" for every word of a file that opens something.
cut -d' ' -f1 "$tmp/opens" | sort -u | xargs grep -o -H -w -E "$id" |
  sed 's/:/ /' | sort -u >"$tmp/words"
# "mli M v" for every exported value.
for mli in $(find lib -name '.*' -prune -o -name '*.mli' -print); do
  base=${mli##*/}
  awk -v mli="$mli" -v top="$(printf '%s' "${base%.mli}" |
    awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')" '
    BEGIN { n = 0; mod[0] = top }
    match($0, /^ *module [A-Z][A-Za-z0-9_'\'']* *: *sig *$/) {
      ind = match($0, /[^ ]/) - 1; name = $2; sub(/:.*/, "", name)
      n++; mod[n] = name; indent[n] = ind; next }
    n > 0 && $0 ~ /^ *end *$/ && match($0, /[^ ]/) - 1 == indent[n] { n--; next }
    /^ *val +[a-z_]/ { v = $2; sub(/:.*/, "", v); print mli, mod[n], v }
  ' "$mli"
done >"$tmp/vals"
awk -v allow=" $allow " '
  FILENAME == ARGV[1] { q[$1 " " $2] = 1; nq[$2] = nq[$2] " " $1; next }
  FILENAME == ARGV[2] { op[$2] = op[$2] " " $1; next }
  FILENAME == ARGV[3] { al[$2] = al[$2] " " $1 "=" $3; next }
  FILENAME == ARGV[4] { w[$1 " " $2] = 1; next }
  {
    mli = $1; m = $2; v = $3; own = mli; sub(/\.mli$/, "", own)
    if (index(allow, " " mli ":" v " ")) next
    used = 0
    k = split(nq[m "." v], fs, " ")
    for (i = 1; i <= k && !used; i++)
      if (fs[i] != own ".ml" && fs[i] != own ".mli") used = 1
    k = split(op[m], fs, " ")
    for (i = 1; i <= k && !used; i++)
      if (fs[i] != own ".ml" && fs[i] != own ".mli" && (fs[i] " " v) in w)
        used = 1
    k = split(al[m], fs, " ")
    for (i = 1; i <= k && !used; i++) {
      split(fs[i], fa, "=")
      if (fa[1] != own ".ml" && fa[1] != own ".mli" && (fa[1] " " fa[2] "." v) in q)
        used = 1
    }
    if (!used) {
      printf "check_exports: %s: val %s (%s.%s) is used nowhere outside %s.ml/.mli\n",
        mli, v, m, v, own > "/dev/stderr"
      bad = 1
    }
  }
  END { exit bad }
' "$tmp/qualified" "$tmp/opens" "$tmp/aliases" "$tmp/words" "$tmp/vals"
