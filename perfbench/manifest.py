"""The corpus manifest: one `COMMAND DOCUMENT EXPECTED_EXIT` entry per line."""

MANIFEST = "docs/corpus/manifest.txt"


def manifest_entries(path: str = MANIFEST) -> list[tuple[str, str, int]]:
    """(command, document path, expected exit code) per manifest line."""
    base = path.rsplit("/", 1)[0]
    entries = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            body = raw.split("#", 1)[0].split()
            if body:
                command, doc, expected = body
                entries.append((command, f"{base}/{doc}", int(expected)))
    return entries
