"""Test-only oracle: the target-construction modules as they were before
the slack tree and the indexed JDM adjuster.

``target_degree_vector.py`` and ``target_jdm.py`` are verbatim copies of
``repro.restore``'s modules with the per-degree scans (a slack list
rebuilt for every visible node, ``_compensate`` scanning every degree up
to ``k*_max``).  ``tests/test_target_oracle.py`` checks that the library
builds byte-identical targets and leaves the RNG in the same state.
Never edit them to follow a library change: they define the output.
"""
