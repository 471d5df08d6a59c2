#!/bin/sh
# Run the eleven mesh-201 CLI runs whose artifacts a refactor must keep byte for
# byte, importing the package from <src-dir> and writing into <out-dir>.
#
#   <parent-checkout>/tools/cli_artifacts.sh <parent-checkout>/src /tmp/parent_out
#   tools/cli_artifacts.sh src /tmp/change_out
#   diff -r /tmp/parent_out /tmp/change_out
#
# Make each tree with its own checkout's copy of this script, since the runs'
# flags follow that checkout's command line (before pod was sized from the
# deflated run, the compare run needed --matched-n).
#
# Every run uses one BLAS thread and a relative --out path, so the two trees
# differ only where the program's results do.  The stdout and exit code of
# every run are appended to <out-dir>/stdout.txt.
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 <src-dir> <out-dir>" >&2
    exit 1
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
export OPENBLAS_NUM_THREADS=1 PYTHONPATH="$src"
: > stdout.txt

bifrb() {
    name=$1
    shift
    code=0
    python3 -m bifrb.cli "$@" --mesh 201 --out "$name" >> stdout.txt || code=$?
    echo "[$name] exit $code" >> stdout.txt
}

bifrb run_deflated_chafee run --model chafee --strategy deflated
bifrb run_deflated_bratu run --model bratu --strategy deflated
bifrb run_vanilla_bratu run --model bratu --strategy vanilla
bifrb run_vanilla_chafee run --model chafee --strategy vanilla
bifrb run_adaptive_chafee run --model chafee --strategy adaptive
bifrb run_adaptive_bratu run --model bratu --strategy adaptive
bifrb compare compare --model chafee --strategies vanilla,deflated,pod
bifrb error_sweep error-sweep --basis-dir run_deflated_chafee
# the model and mesh come from basis.json; bratu, single-branch sweep
bifrb error_sweep_vanilla_bratu error-sweep --basis-dir run_vanilla_bratu
bifrb diagram_bratu diagram --model bratu
# the config-file layer: RunConfig.from_dict, then the flags on top
echo '{"model_kind": "bratu", "train_size": 21, "test_size": 41}' > run_config.json
bifrb run_config run --config run_config.json
