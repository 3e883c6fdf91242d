import pytest

from textexplain.explain import METHOD_NAMES, ExplainOptions, explain

from conftest import rand_params


@pytest.mark.parametrize("k", [-1, 2, 5])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_target_class_out_of_range_is_rejected(name, k):
    p = rand_params("GRU", n_classes=2)
    with pytest.raises(ValueError, match="out of range"):
        explain(name, p, [1, 2, 3], k, ExplainOptions(limsse_n=10))
