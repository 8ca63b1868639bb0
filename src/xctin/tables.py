"""An audit's records as columns: Table and its repeated-value Coded column.

Only the audits in experiments build Tables, so numpy is loaded whenever one
exists. The module itself loads none, because cli imports it to tell a Table
from the Python values of the other commands' records; the Coded methods
that need numpy import it when called.
"""


class Coded:
    """A column that repeats a few values: its distinct values and an array of
    non-negative integer codes, cell i being values[codes[i]]. It acts as the
    list of its cells without building it (len, indexing, iteration over the
    very value objects, ==, count); np.asarray takes the values by the codes.
    The writer formats each value once, float values in numpy with those of
    the table's other Coded columns of floats."""

    __slots__ = ("values", "codes")

    def __init__(self, values, codes):
        self.values, self.codes = values, codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        codes = self.codes[i]
        return Coded(self.values, codes) if isinstance(i, slice) else self.values[codes]

    def __iter__(self):
        return map(self.values.__getitem__, self.codes.tolist())

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Coded)) else NotImplemented

    def count(self, v) -> int:
        import numpy as np
        return sum(int(np.count_nonzero(self.codes == k))
                   for k, x in enumerate(self.values) if x is v or x == v)

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        return np.take(np.asarray(self.values, dtype=dtype), self.codes)


class Table:
    """An audit's records as equal-length columns.

    A column is a Coded column when its producer knows that it repeats a
    few values, which the writer then formats once each; otherwise a 1-D
    float64 or int64 array, which the writer formats with numpy. len(),
    iteration and indexing see rows of plain Python cells (an array
    column's through tolist() or item()), made on demand: record(*row) when
    record is given, plain tuples otherwise; == compares names and rows.
    """

    __slots__ = ("names", "columns", "record")

    def __init__(self, names, columns, record=None):
        self.names = tuple(names)
        self.columns = tuple(columns)
        self.record = record

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        columns = [c if isinstance(c, Coded) else c.tolist() for c in self.columns]
        return zip(*columns) if self.record is None else map(self.record, *columns)

    def __getitem__(self, i):
        row = tuple(c[i] if isinstance(c, Coded) else c.item(i) for c in self.columns)
        return row if self.record is None else self.record(*row)

    def __eq__(self, other):
        return isinstance(other, Table) and self.names == other.names and list(self) == list(other)
