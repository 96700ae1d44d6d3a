"""``parallel_map`` yields results in input order, reads its input only a
bounded number of items ahead of the results taken, and leaves no process
behind, also when the mapped function or the caller raises."""

import multiprocessing

import pytest

from bitextkit.parallel import parallel_map


class _Counted:
    """A sized input that counts the items read from it."""

    def __init__(self, items):
        self.items = list(items)
        self.read = 0

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        for item in self.items:
            self.read += 1
            yield item


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_in_input_order(workers):
    items = [(-1) ** i * i for i in range(300)]
    assert list(parallel_map(abs, items, workers=workers)) == [abs(i) for i in items]


def _most_read_ahead(length: int, workers: int) -> int:
    items = _Counted(range(length))
    ahead = 0
    for taken, _ in enumerate(parallel_map(abs, items, workers=workers), start=1):
        ahead = max(ahead, items.read - taken)
    assert taken == length
    return ahead


@pytest.mark.parametrize("workers", [1, 2])
def test_input_is_read_a_bounded_number_of_items_ahead(workers):
    ahead = _most_read_ahead(50, workers)
    assert ahead == _most_read_ahead(2_000, workers)
    assert ahead <= (0 if workers == 1 else 16)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_in_the_mapped_function_leaves_no_process(workers):
    items = [str(i) for i in range(100)]
    items[40] = "not a number"
    with pytest.raises(ValueError):
        for _ in parallel_map(int, items, workers=workers):
            pass
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_in_the_caller_leaves_no_process(workers):
    items = _Counted(range(1_000))
    with pytest.raises(RuntimeError):
        for taken, _ in enumerate(parallel_map(abs, items, workers=workers)):
            if taken == 20:
                raise RuntimeError("the caller stops")
    assert multiprocessing.active_children() == []
    assert items.read < 100
