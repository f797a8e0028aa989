#!/usr/bin/env bash
# Compare the CLI's outputs at git revision REF with those of the working tree.
#
#   tools/same_outputs.sh REF
#
# Exports REF with `git archive` into a temporary directory (no worktree is
# registered), then runs the same commands in both trees, each from its own
# output directory with relative paths, so paths printed to stdout match:
# train --seed 0, the same with --activation relu and a sweep of that
# bundle (the only ReLU network the tool trains and samples), a swiss-roll
# training run whose last batch is short (200 samples in batches of 64: 8
# rows), sweeps at --jobs 1 and --jobs 2, one that lists its seeds out of
# order, one that lists its modes and bits out of CSV order, a DDIM warm-up
# sweep, a wide DDIM sweep (n=256: tensors above sq_norm's 8,192-element
# block, and layer steps on 128 KiB buffers), a DDPM sweep at an odd batch
# size (noise blocks whose element count is not a multiple of 8), stats
# under DDPM and DDIM and at --timesteps 2 --n 1 (one difference row, from
# single-row tensors), verify, verify
# --inject-broken-quantizer, bops and bops --bundle, each of the two also at
# --weight-bits 4 (the one setting that prices a weight width other than the
# cost model's). Every command's stdout, stderr and exit code is an
# artifact, as is every file it writes. Prints "same" or "differs" per
# artifact and exits 1 if any differs (2 on a usage error).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/ref-src" "$work/ref" "$work/new"
git -C "$repo" archive "$1" src | tar -x -C "$work/ref-src"

# run NAME ARGS...: `modiff ARGS` in the current directory; NAME.out, .err
# and .rc hold its stdout, stderr and exit code
run() {
    local name=$1
    shift
    set +e
    python3 -m modiff.cli "$@" > "$name.out" 2> "$name.err"
    echo $? > "$name.rc"
    set -e
}

outputs() {
    cd "$2"
    export PYTHONPATH="$1" PYTHONDONTWRITEBYTECODE=1
    run train train --seed 0 --out bundle
    run train-relu train --seed 0 --activation relu --out bundle-relu
    run train-swiss train --dataset swiss_roll --n-samples 200 --batch 64 --epochs 20 \
        --out bundle-swiss
    run sweep-relu sweep --bundle bundle-relu --seeds 0,1 --modes fp,direct,modulated,ec \
        --bits 3,4 --out sweep-relu.csv
    run sweep-jobs1 sweep --bundle bundle --seeds 0,1,2 --modes fp,direct,modulated,ec \
        --bits 3,4 --jobs 1 --out sweep-jobs1.csv
    run sweep-jobs2 sweep --bundle bundle --seeds 0,1,2 --modes fp,direct,modulated,ec \
        --bits 3,4 --jobs 2 --out sweep-jobs2.csv
    run sweep-seed-order sweep --bundle bundle --seeds 2,0,1 --modes fp,direct,modulated,ec \
        --bits 3,4 --jobs 2 --out sweep-seed-order.csv
    run sweep-cell-order sweep --bundle bundle --seeds 1 --modes ec,fp,modulated,direct \
        --bits 4,3,6 --out sweep-cell-order.csv
    run sweep-ddim sweep --bundle bundle --modes fp,ec,modulated --bits 3 --warmup-k 2 \
        --skip-threshold 0.05 --sampler ddim --out sweep-ddim.csv
    run sweep-ddim-wide sweep --bundle bundle --seeds 0 --modes fp,direct,modulated,ec \
        --bits 3,4 --sampler ddim --n 256 --timesteps 20 --out sweep-ddim-wide.csv
    run sweep-odd-n sweep --bundle bundle --seeds 5 --modes fp,direct,ec --bits 3 --n 3 \
        --timesteps 7 --out sweep-odd-n.csv
    run stats-ddpm stats --bundle bundle --out stats-ddpm.csv
    run stats-ddim stats --bundle bundle --sampler ddim --out stats-ddim.csv
    run stats-t2 stats --bundle bundle --timesteps 2 --n 1 --out stats-t2.csv
    run verify verify
    run verify-broken verify --inject-broken-quantizer
    run bops bops
    run bops-bundle bops --bundle bundle
    run bops-w4 bops --weight-bits 4 --bits 4,3
    run bops-bundle-w4 bops --bundle bundle --weight-bits 4
}

(outputs "$work/ref-src/src" "$work/ref")
(outputs "$repo/src" "$work/new")

status=0
while read -r path; do
    if cmp -s "$work/ref/$path" "$work/new/$path"; then
        echo "same     $path"
    else
        echo "differs  $path"
        status=1
    fi
done < <(cd "$work" && { (cd ref && find . -type f); (cd new && find . -type f); } \
             | sed 's|^\./||' | sort -u)
exit $status
