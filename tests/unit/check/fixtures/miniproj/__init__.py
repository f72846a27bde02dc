"""Fixture mini-package for the lint output and suppression tests.

``timing.py`` and ``clock.py`` each carry one deliberate finding, so the
report and output-format tests see a dirty project.  The tests assert
exact finding sets, so keep line movements deliberate.
"""
