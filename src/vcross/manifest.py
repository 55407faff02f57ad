"""Run manifests: everything needed to reproduce and audit a batch run.

A manifest is flat text with block markers.  It embeds the configuration and
the ladder serialization verbatim, records the code version, grid, wall-clock
timings and every file the run produced.  Output files themselves contain no
timestamps, so re-running a configuration reproduces them byte for byte; the
manifest is the only file carrying timing data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import __version__


@dataclass
class RunManifest:
    command: str
    config_text: str
    out_dir: str
    grid_n: int = 0
    ladder_text: str = ""
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add_output(self, name):
        """Record output ``name``, creating ``out_dir`` at the first; return its path."""
        if not self.outputs:
            os.makedirs(self.out_dir, exist_ok=True)
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def note(self, text):
        self.notes.append(text)

    def render(self):
        lines = [
            "# vcross run manifest",
            f"version = {__version__}",
            f"command = {self.command}",
            f"grid_n = {self.grid_n}",
        ]
        for name, seconds in self.timings.items():
            lines.append(f"timing_{name}_s = {seconds:.3f}")
        lines.append("")
        lines.append("[outputs]")
        lines.extend(self.outputs)
        if self.notes:
            lines.append("")
            lines.append("[notes]")
            lines.extend(self.notes)
        # embedded blocks are indented so their own section headers cannot be
        # mistaken for manifest block markers when reading back
        if self.ladder_text:
            lines.append("")
            lines.append("[ladder]")
            lines.extend("  " + l for l in self.ladder_text.rstrip("\n").splitlines())
        lines.append("")
        lines.append("[config]")
        lines.extend("  " + l for l in self.config_text.rstrip("\n").splitlines())
        lines.append("")
        return "\n".join(lines)

    def write(self):
        path = os.path.join(self.out_dir, "manifest.txt")
        with open(path, "w") as fh:
            fh.write(self.render())
        return path


def read_manifest(path):
    """Parse a manifest back into (header dict, outputs list, blocks dict)."""
    header = {}
    outputs = []
    blocks = {}
    block = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("[") and line.endswith("]"):
                block = line[1:-1]
                blocks[block] = []
                continue
            if block is None:
                if "=" in line:
                    key, _, val = line.partition("=")
                    header[key.strip()] = val.strip()
                continue
            if block == "outputs":
                if line.strip():
                    outputs.append(line.strip())
            else:
                blocks[block].append(line)
    return header, outputs, blocks
