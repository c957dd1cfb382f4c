import numpy as np
import pytest

from silentspeech import articspace, corpus, featnet, recognizer, stats
from silentspeech.errors import DataError, SilentSpeechError, UsageError

TINY = featnet.FeatNetConfig(input_shape=(1, 8, 8), conv_kernel=2, conv_filters=(2, 3),
                             fc_dims=(8, 6, 4, 6), n_classes=2)
X = np.zeros((2, *TINY.input_shape))
Y = np.zeros(2, dtype=int)
POINTS = np.random.default_rng(0).random((10, 2))

# every argument check of the public API, each with an argument it rejects
BAD_CALLS = {
    "train_sgd-epochs": lambda: featnet.train_sgd(featnet.init_params(TINY), X, Y, X, Y,
                                                  epochs=0),
    "extract_bottleneck-chunk": lambda: featnet.extract_bottleneck(
        featnet.init_params(TINY), np.zeros((3, 8, 8)), chunk=0),
    "fit_iforest-psi": lambda: articspace.fit_iforest(POINTS, psi=1),
    "prune_outliers-contamination": lambda: articspace.prune_outliers(
        articspace.ContourCloud("s0", "modal", POINTS), contamination=0.5),
    "betainc-a": lambda: stats.betainc(0.0, 1.0, 0.5),
    "student_t_sf-t": lambda: stats.student_t_sf(np.inf, 3),
    "student_t_sf-df": lambda: stats.student_t_sf(1.0, 0),
    "holm_bonferroni-empty": lambda: stats.holm_bonferroni([], 0.05),
    "holm_bonferroni-alpha": lambda: stats.holm_bonferroni([0.1], 1.0),
    "holm_bonferroni-p": lambda: stats.holm_bonferroni([1.5], 0.05),
    "split_prompt_disjoint-prompts": lambda: corpus.split_prompt_disjoint(
        corpus.Manifest(phones=["p0"], records=[]), set()),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_argument_check_raises_toolkit_error(name):
    """A rejected argument raises UsageError: a SilentSpeechError, and a
    ValueError for callers that catch the builtin."""
    with pytest.raises(SilentSpeechError) as info:
        BAD_CALLS[name]()
    assert type(info.value) is UsageError
    assert isinstance(info.value, ValueError)


# every reader of a data file, each given a path it cannot read
MISSING_FILE_READERS = {
    "load_lexicon": lambda p: recognizer.load_lexicon(p, ["p0"]),
    "load_manifest": corpus.load_manifest,
    "load_params": featnet.load_params,
    "read_frames": corpus.read_frames,
    "read_labels": corpus.read_labels,
    "read_features": corpus.read_features,
}


@pytest.mark.parametrize("name, is_dir", [
    pytest.param(name, is_dir, id=name + ("-directory" if is_dir else ""))
    for name in sorted(MISSING_FILE_READERS) for is_dir in (False, True)])
def test_missing_file_raises_data_error(name, is_dir, tmp_path):
    """A path that does not exist, or that names a directory, raises
    DataError naming the path, not a bare OSError."""
    path = tmp_path / "input.bin"
    if is_dir:
        path.mkdir()
    with pytest.raises(DataError, match="input.bin") as info:
        MISSING_FILE_READERS[name](path)
    assert isinstance(info.value.__cause__, IsADirectoryError if is_dir else FileNotFoundError)
