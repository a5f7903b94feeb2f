"""SEC001 fixture: plaintext sealed into a reusable record buffer."""


def seal_into_record(arr, engine, ssd):
    record = memoryview(bytearray(8 + arr.nbytes + 28))
    plaintext = memoryview(arr).cast("B")
    size = engine.seal_into(plaintext, record[8:])
    record[:8] = size.to_bytes(8, "little")
    ssd.write(0, record[: 8 + size])
