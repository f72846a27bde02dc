"""Fixture mini-package for the whole-program analysis tests.

``graph.py`` exercises every direct call form the IR resolves;
``timing.py`` and ``clock.py`` each carry one deliberate per-file
finding, so the report and output-format tests see a dirty project.  The
tests assert exact finding sets, so keep line movements deliberate.
"""
