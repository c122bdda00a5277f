"""Fixture: a miniature experiment registry.

The analyzer extracts ``Experiment(...)`` runner arguments from any
``registry.py`` statically, so ``cached_runner.run`` and
``instance_runner.run`` become cache-entering analysis roots without
this file ever being imported.
"""

import cached_runner
import instance_runner


class Experiment:
    def __init__(self, exp_id, title, description, runner):
        self.exp_id = exp_id
        self.title = title
        self.description = description
        self.runner = runner


EXPERIMENTS = (
    Experiment(
        "cached",
        "Cached sweep",
        "A runner whose results enter the content-addressed cache.",
        cached_runner.run,
    ),
    Experiment(
        "instance",
        "Instance sweep",
        "A runner that reaches the clock through a module-level instance.",
        instance_runner.run,
    ),
)
