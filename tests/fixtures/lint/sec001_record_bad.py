"""SEC001 fixture: plaintext copied into a reusable record buffer."""


def leak_through_record(arr, ssd):
    record = memoryview(bytearray(8 + arr.nbytes))
    plaintext = memoryview(arr).cast("B")
    record[8 : 8 + len(plaintext)] = plaintext  # copied, never sealed
    ssd.write(0, record)
